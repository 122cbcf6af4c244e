package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"rentmin"
	"rentmin/client"
)

func TestSolveByRefRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	p := fastProblem(70)
	hash, doc, err := client.ProblemHash(p)
	if err != nil {
		t.Fatalf("ProblemHash: %v", err)
	}
	if err := c.UploadProblem(ctx, hash, doc); err != nil {
		t.Fatalf("UploadProblem: %v", err)
	}
	// Upload is idempotent: re-PUT refreshes, no error.
	if err := c.UploadProblem(ctx, hash, doc); err != nil {
		t.Fatalf("re-UploadProblem: %v", err)
	}

	// The canonical document carries target zero; the ref patches it in.
	sol, err := c.SolveRef(ctx, hash, 70, nil)
	if err != nil {
		t.Fatalf("SolveRef: %v", err)
	}
	if !sol.Proven || sol.Allocation.Cost != 124 {
		t.Errorf("ref solve: cost %d proven=%v, want proven 124", sol.Allocation.Cost, sol.Proven)
	}
	// Same document, different target — no second upload needed.
	sol, err = c.SolveRef(ctx, hash, 10, nil)
	if err != nil {
		t.Fatalf("SolveRef target 10: %v", err)
	}
	if sol.Allocation.Cost != 28 {
		t.Errorf("ref solve target 10: cost %d, want 28", sol.Allocation.Cost)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"rentmind_problem_uploads_total 2",
		"rentmind_problem_cache_hits_total 2",
		"rentmind_problem_cache_misses_total 0",
		"rentmind_problem_cache_entries 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestSolveRefUncachedAnswers412(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	missing := strings.Repeat("ab", 32)
	_, err := c.SolveRef(context.Background(), missing, 70, nil)
	apiErr := apiStatus(t, err)
	if apiErr.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("uncached ref: HTTP %d, want 412", apiErr.StatusCode)
	}
	if !strings.Contains(apiErr.Message, missing) || !strings.Contains(apiErr.Message, "/v1/problems/") {
		t.Errorf("412 should name the hash and the upload endpoint, got %q", apiErr.Message)
	}
}

func TestProblemPutRejectsBadUploads(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxGraphs: 2})
	put := func(hash, body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, serverURL(c)+"/v1/problems/"+hash, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	_, doc, err := client.ProblemHash(fastProblem(70))
	if err != nil {
		t.Fatal(err)
	}
	if code := put("nothex", string(doc)); code != http.StatusBadRequest {
		t.Errorf("malformed hash: %d, want 400", code)
	}
	if code := put(strings.Repeat("ab", 32), string(doc)); code != http.StatusBadRequest {
		t.Errorf("hash/content mismatch: %d, want 400", code)
	}
	if code := put(strings.Repeat("ab", 32), "{not json"); code != http.StatusBadRequest {
		t.Errorf("unparseable document: %d, want 400", code)
	}

	// Admission control still guards the cache: an oversize problem is
	// rejected 422 even with a correct hash.
	big := fastProblem(70)
	for len(big.App.Graphs) <= 2 {
		big.App.Graphs = append(big.App.Graphs, big.App.Graphs[0])
	}
	hash, bigDoc, err := client.ProblemHash(big)
	if err != nil {
		t.Fatal(err)
	}
	if code := put(hash, string(bigDoc)); code != http.StatusUnprocessableEntity {
		t.Errorf("oversize upload: %d, want 422", code)
	}
}

func TestSolveRejectsProblemPlusRef(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	hash := strings.Repeat("ab", 32)
	_, doc, err := client.ProblemHash(fastProblem(70))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"problem": %s, "problem_ref": {"hash": %q}}`, doc, hash)
	resp, err := http.Post(serverURL(c)+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("problem + problem_ref: %d, want 400", resp.StatusCode)
	}
	batch := fmt.Sprintf(`{"problems": [%s], "problem_refs": [{"hash": %q}]}`, doc, hash)
	resp, err = http.Post(serverURL(c)+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("problems + problem_refs: %d, want 400", resp.StatusCode)
	}
}

func TestBatchByRefSweepsTargets(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	hash, doc, err := client.ProblemHash(fastProblem(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UploadProblem(ctx, hash, doc); err != nil {
		t.Fatalf("UploadProblem: %v", err)
	}
	targets := []int{10, 40, 70}
	refs := make([]client.ProblemRef, len(targets))
	for i := range targets {
		tgt := targets[i]
		refs[i] = client.ProblemRef{Hash: hash, Target: &tgt}
	}
	sols, err := c.SolveBatchRef(ctx, refs, nil)
	if err != nil {
		t.Fatalf("SolveBatchRef: %v", err)
	}
	wantCosts := []int64{28, 69, 124}
	for i, sol := range sols {
		if sol.Error != "" {
			t.Errorf("item %d failed: %s", i, sol.Error)
			continue
		}
		if sol.Allocation.Cost != wantCosts[i] {
			t.Errorf("item %d: cost %d, want %d", i, sol.Allocation.Cost, wantCosts[i])
		}
	}
	// One upload served the whole sweep.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "rentmind_problem_uploads_total 1") {
		t.Errorf("sweep should need exactly one upload:\n%s", metrics)
	}
}

// TestNegativeTargetPatchRejected covers every place a request replaces
// the target of an already-validated problem: each checks the new target
// and answers 400 with its own message.
func TestNegativeTargetPatchRejected(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	hash, doc, err := client.ProblemHash(fastProblem(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UploadProblem(context.Background(), hash, doc); err != nil {
		t.Fatalf("UploadProblem: %v", err)
	}
	for _, tc := range []struct {
		name, path, body, want string
	}{
		{"problem_ref target", "/v1/solve",
			fmt.Sprintf(`{"problem_ref": {"hash": %q, "target": -5}}`, hash),
			"invalid problem_ref target: negative target throughput -5"},
		{"problem_refs[1] target", "/v1/batch",
			fmt.Sprintf(`{"problem_refs": [{"hash": %q, "target": 10}, {"hash": %q, "target": -5}]}`, hash, hash),
			"problem 1: invalid problem_ref target: negative target throughput -5"},
		{"target override on an inline problem", "/v1/solve",
			fmt.Sprintf(`{"problem": %s, "target": -5}`, doc),
			"invalid target override: negative target throughput -5"},
		{"target override on a problem_ref", "/v1/solve",
			fmt.Sprintf(`{"problem_ref": {"hash": %q, "target": 70}, "target": -5}`, hash),
			"invalid target override: negative target throughput -5"},
		{"target override on session create", "/v1/sessions",
			fmt.Sprintf(`{"problem": %s, "target": -5}`, doc),
			"invalid target override: negative target throughput -5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(serverURL(c)+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e client.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			if resp.StatusCode != http.StatusBadRequest || e.Error != tc.want {
				t.Errorf("HTTP %d %q, want 400 %q", resp.StatusCode, e.Error, tc.want)
			}
		})
	}
}

// TestBatchItemRejectionMessages pins the message of every per-item
// rejection a batch answers with, byte for byte: each names the item's
// index, and a batch of accepted items builds no such prefix at all.
func TestBatchItemRejectionMessages(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	hash, doc, err := client.ProblemHash(fastProblem(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UploadProblem(context.Background(), hash, doc); err != nil {
		t.Fatalf("UploadProblem: %v", err)
	}
	// A second daemon takes bodies of at most a small margin over doc.
	bodyLimit := len(doc) + 64
	_, small := newTestServer(t, Config{Workers: 1, MaxBodyBytes: int64(bodyLimit)})
	doc10, err := json.Marshal(fastProblem(10))
	if err != nil {
		t.Fatal(err)
	}
	escaped := strings.Replace(string(doc10), `"phi1"`, `"\u0070hi1"`, 1)
	missing := strings.Repeat("ab", 32)
	for _, tc := range []struct {
		name, body string
		code       int
		want       string
		c          *client.Client // nil: the first daemon
	}{
		{"malformed document", fmt.Sprintf(`{"problems": [%s, {"bogus": 1}]}`, doc),
			http.StatusBadRequest, `problem 1: decode problem: json: unknown field "bogus"`, nil},
		{"malformed ref hash", fmt.Sprintf(`{"problem_refs": [{"hash": %q, "target": 10}, {"hash": "xyz"}]}`, hash),
			http.StatusBadRequest, "problem 1: malformed problem_ref hash: want 64 hex characters (lowercase sha256)", nil},
		{"uncached ref", fmt.Sprintf(`{"problem_refs": [{"hash": %q, "target": 10}, {"hash": %q, "target": 10}]}`, hash, missing),
			http.StatusPreconditionFailed, "problem 1: problem " + missing + " not cached: upload it via PUT /v1/problems/{hash} and retry", nil},
		// The edge of the shape client emits. Each body below leaves it, in
		// the envelope, in a document or by the size limit, and is
		// answered as encoding/json reads it: an answer of 200 means it
		// solves.
		{"duplicate problems key", fmt.Sprintf(`{"problems": [%s], "problems": [%s, {"bogus": 1}]}`, doc10, doc10),
			http.StatusBadRequest, `problem 1: decode problem: json: unknown field "bogus"`, nil},
		{"problems key in another case", fmt.Sprintf(`{"Problems": [%s]}`, doc10), http.StatusOK, "", nil},
		{"null problem", fmt.Sprintf(`{"problems": [%s, null]}`, doc10),
			http.StatusBadRequest, `problem 1: invalid problem: platform "": no machine types`, nil},
		{"malformed document and negative time limit", `{"problems": [{"bogus": 1}], "time_limit_ms": -5}`,
			http.StatusBadRequest, "negative time_limit_ms -5", nil},
		{"malformed document and refs", fmt.Sprintf(`{"problems": [{"bogus": 1}], "problem_refs": [{"hash": %q}]}`, hash),
			http.StatusBadRequest, "problems and problem_refs are mutually exclusive", nil},
		{"escaped string in document", fmt.Sprintf(`{"problems": [%s, %s]}`, doc10, escaped), http.StatusOK, "", nil},
		{"fractional ref target", fmt.Sprintf(`{"problem_refs": [{"hash": %q, "target": 1.5}]}`, hash),
			http.StatusBadRequest, "decode request: json: cannot unmarshal number 1.5 into Go struct field ProblemRef.problem_refs.target of type int", nil},
		{"stats false", fmt.Sprintf(`{"problems": [%s], "stats": false}`, doc10), http.StatusOK, "", nil},
		{"padded past the size limit", fmt.Sprintf(`{"problems": [%s]}`, doc10) + strings.Repeat(" ", bodyLimit),
			http.StatusBadRequest, "decode request: http: request body too large", small},
		{"cut by the size limit", fmt.Sprintf(`{"problems": [%s, %s]}`, doc10, doc10),
			http.StatusBadRequest, "decode request: http: request body too large", small},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.c == nil {
				tc.c = c
			}
			resp, err := http.Post(serverURL(tc.c)+"/v1/batch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e client.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			if resp.StatusCode != tc.code || e.Error != tc.want {
				t.Errorf("HTTP %d %q, want %d %q", resp.StatusCode, e.Error, tc.code, tc.want)
			}
		})
	}
}

// TestIndentedDocumentStillResolves uploads a document in the indented
// layout earlier versions hashed. The daemon hashes the bytes as
// received, so it resolves and solves by reference under its own hash,
// and a fleet mixing old and new clients keeps working.
func TestIndentedDocumentStillResolves(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	var buf bytes.Buffer
	if err := rentmin.WriteProblem(&buf, fastProblem(0)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	oldHash := hex.EncodeToString(sum[:])
	newHash, _, err := client.ProblemHash(fastProblem(0))
	if err != nil {
		t.Fatal(err)
	}
	if oldHash == newHash {
		t.Fatal("indented and compact documents share a hash; the test needs the old layout")
	}
	if err := c.UploadProblem(ctx, oldHash, buf.Bytes()); err != nil {
		t.Fatalf("UploadProblem (indented): %v", err)
	}
	sol, err := c.SolveRef(ctx, oldHash, 70, nil)
	if err != nil {
		t.Fatalf("SolveRef (indented): %v", err)
	}
	if !sol.Proven || sol.Allocation.Cost != 124 {
		t.Errorf("indented ref solve: cost %d proven=%v, want proven 124", sol.Allocation.Cost, sol.Proven)
	}
	// The compact hash names a different document, which this daemon
	// does not hold yet: one 412, then the client re-uploads.
	_, err = c.SolveRef(ctx, newHash, 70, nil)
	if apiErr := apiStatus(t, err); apiErr.StatusCode != http.StatusPreconditionFailed {
		t.Errorf("compact hash before upload: HTTP %d, want 412", apiErr.StatusCode)
	}
}

func TestProblemCacheEvictsLRU(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, ProblemCacheSize: 2})
	ctx := context.Background()

	upload := func(seed uint64) string {
		t.Helper()
		p, err := rentmin.Generate(rentmin.GenConfig{
			NumGraphs: 2, MinTasks: 2, MaxTasks: 3, MutatePercent: 0.5,
			NumTypes: 3, CostMin: 1, CostMax: 20,
			ThroughputMin: 5, ThroughputMax: 25,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		hash, doc, err := client.ProblemHash(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.UploadProblem(ctx, hash, doc); err != nil {
			t.Fatalf("upload seed %d: %v", seed, err)
		}
		return hash
	}
	first := upload(1)
	upload(2)
	upload(3) // capacity 2: evicts the least recently used — `first`

	if _, err := c.SolveRef(ctx, first, 10, nil); apiStatus(t, err).StatusCode != http.StatusPreconditionFailed {
		t.Errorf("evicted hash should answer 412")
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rentmind_problem_cache_evictions_total 1",
		"rentmind_problem_cache_entries 2",
		"rentmind_problem_cache_capacity 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestNegativeTimeLimitRejected(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	_, doc, err := client.ProblemHash(fastProblem(70))
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{
		"/v1/solve": fmt.Sprintf(`{"problem": %s, "time_limit_ms": -5}`, doc),
		"/v1/batch": fmt.Sprintf(`{"problems": [%s], "time_limit_ms": -5}`, doc),
	} {
		resp, err := http.Post(serverURL(c)+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with negative time_limit_ms: %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestSolveTimeLimitClamp: a requested limit resolves against the
// default and the maximum, and one too large for a time.Duration clamps
// to the maximum instead of overflowing into an expired deadline.
func TestSolveTimeLimitClamp(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, DefaultTimeLimit: 10 * time.Second, MaxTimeLimit: time.Minute})
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, 10 * time.Second},
		{1, time.Millisecond},
		{59999, 59999 * time.Millisecond},
		{60000, time.Minute},
		{60001, time.Minute},
		{9_300_000_000_000, time.Minute},
		{1 << 62, time.Minute},
		{math.MaxInt64, time.Minute},
	} {
		got, err := s.solveTimeLimit(tc.ms)
		if err != nil || got != tc.want {
			t.Errorf("solveTimeLimit(%d) = %v, %v; want %v", tc.ms, got, err, tc.want)
		}
	}

	_, doc, err := client.ProblemHash(fastProblem(70))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"problem": %s, "target": 70, "time_limit_ms": %d}`, doc, int64(math.MaxInt64))
	resp, err := http.Post(serverURL(c)+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sol client.Solution
	err = json.NewDecoder(resp.Body).Decode(&sol)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("solve with time_limit_ms MaxInt64: HTTP %d, decode %v; want 200", resp.StatusCode, err)
	}
	if sol.Allocation.Cost != 124 || !sol.Proven {
		t.Errorf("solve with time_limit_ms MaxInt64: cost %d proven %v, want 124 proven", sol.Allocation.Cost, sol.Proven)
	}
}

func TestCapacityDuringDrain503(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	s.BeginDrain()
	_, err := c.Capacity(context.Background())
	apiErr := apiStatus(t, err)
	if apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("capacity while draining: HTTP %d, want 503", apiErr.StatusCode)
	}
	if !apiErr.Temporary() {
		t.Errorf("draining 503 should be Temporary so fleet builders skip, not fail")
	}
}

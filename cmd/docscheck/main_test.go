package main

import (
	"os"
	"path/filepath"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFile(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "other.md"), "# other\n")
	write(t, filepath.Join(dir, "sub", "deep.md"), "# deep\n")
	write(t, filepath.Join(dir, "doc.md"), `# doc
A good [link](other.md) and a [nested one](sub/deep.md).
An [anchored link](other.md#section) and a [fragment](#here).
An [external](https://example.com/x.md) and a [mail](mailto:a@b.c).
A [broken one](missing.md) and a [broken anchored](gone.md#top).
Code is not a link: `+"`f[W](ctx)`"+` and `+"``g[x](y)``"+`.
After `+"`code`"+` a [real one](absent.md) still counts.
An unmatched `+"`"+` tick leaves a [later link](stray.md) checked.
`)

	got := checkFile(filepath.Join(dir, "doc.md"))
	if len(got) != 4 {
		t.Fatalf("got %d broken links, want 4: %v", len(got), got)
	}
	for i, want := range []string{"missing.md", "gone.md#top", "absent.md", "stray.md"} {
		if !containsSuffix(got[i], want) {
			t.Errorf("broken[%d] = %q, want suffix %q", i, got[i], want)
		}
	}
}

func TestCheckFileRealDocs(t *testing.T) {
	// The repository's own docs must stay clean (the CI docs job runs the
	// binary over the same set).
	root := "../.."
	for _, f := range []string{"README.md", "ARCHITECTURE.md", "ROADMAP.md", "CHANGES.md", filepath.Join("docs", "metrics.md")} {
		path := filepath.Join(root, f)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("expected doc missing: %v", err)
		}
		if broken := checkFile(path); len(broken) > 0 {
			t.Errorf("%s has broken links: %v", f, broken)
		}
	}
}

func containsSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}

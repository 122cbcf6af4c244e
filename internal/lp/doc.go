// Package lp implements a two-phase simplex solver for linear programs
// in the form
//
//	minimize    c·x
//	subject to  A_i·x {<=,>=,=} b_i   for every constraint i
//	            lo_j <= x_j <= hi_j   for every variable j
//
// with the classic non-negative orthant (lo = 0, hi = +inf) as the
// default when no bounds are given. It is the linear-programming
// substrate under the branch-and-bound MILP solver (package milp), which
// together replace the commercial ILP solver (Gurobi) used by the paper.
// See the repository's ARCHITECTURE.md for where this package sits in
// the stack.
//
// # The pivot kernel
//
// Every solve — Solve, SolveFrom and each round of SolveGomory — runs on
// one kernel: a sparse revised simplex. The problem is held in equality
// form A·x + s = b with one slack column per row whose bounds encode the
// row sense (LE: [0,inf), GE: (-inf,0], EQ: fixed 0), in column-major
// (CSC) storage of [A | I]. Nothing is shifted, complemented or
// normalized: variable bounds are native in the two-sided ratio tests,
// and the solution and duals read off in original coordinates.
//
// The basis is held as a product-form factorization (eta.go):
// Gauss–Jordan base etas with partial pivoting from the last
// refactorization plus one update eta per basis exchange, rebuilt every
// refactorEvery updates. A refactorization skips the identity etas of
// basic slacks: when a slack's turn comes and no earlier column has
// pivoted on its row, its unit column passes through every earlier eta
// unchanged and would pivot on that row with pivot 1 and nothing else —
// an eta whose application is an exact no-op. The slack takes the row
// directly and no eta is pushed, so every FTRAN and BTRAN is
// bit-identical to the unskipped factorization. A primal iteration
// prices with one BTRAN (Dantzig pricing, with a Bland fallback after a
// stall window), FTRANs the entering column, and runs the bounded ratio
// test, so per-iteration work scales with the matrix's nonzero count
// rather than m×n. A dual iteration also takes one BTRAN, for the pivot
// row, and keeps the reduced costs current by updating them from that
// row (d_j -= θ·α_j) rather than re-pricing from fresh duals; every
// refactorization re-prices them, and the final check of a warm solve
// prices from fresh duals. Duals fall out of BTRAN in original row space
// with no extra bookkeeping.
// All degeneracy decisions share one loosened tolerance (the square root
// of the pricing tolerance). Status values map to typed sentinel errors
// (ErrInfeasible, ErrUnbounded, ErrIterLimit) via Status.Err, so callers
// can errors.Is against outcomes that cross API layers.
//
// Phase 1 needs no artificial columns: the all-slack basis is always a
// basis, and each basic variable that violates a bound has that bound
// temporarily relaxed toward the violated side (clamped at the violated
// bound) with a unit cost on the excursion. Minimizing drives the
// violations to zero exactly when the problem is feasible; a relaxed
// variable that lands on its clamp gets its true bounds re-armed on the
// spot, so later pivots can move it into the feasible interior.
//
// # Compiled models
//
// A Model is a problem compiled once: NewModel validates it and fills
// read-only arrays with the CSC of [A | I], the cost per column, the
// right-hand sides and the slack bounds that encode the row senses, in
// two passes over the sparse rows (each row's nonzeros, in ascending
// column order), so compiling costs O(nnz). Model.SolveFrom then
// re-solves it under new variable bounds, validating only those (O(n))
// and pointing the workspace at the model's arrays instead of copying
// them. This is the branch-and-bound shape — every node of a tree shares
// its rows and differs only in Lo/Hi — and the milp package compiles
// each tree's LP once, after the root and its cuts, and solves every
// child through it. Solve and SolveFrom compile into the workspace's own
// model buffers and run the same path, so the one-shot and compiled
// solves of one problem are bit-identical. Model buffers come from their
// own pool; Model.Release hands them back once no solve uses the model.
// Each compile bumps the model's generation, which is what tells a
// Start restored on an earlier compile of the same pooled buffers from a
// current one.
//
// # Workspace reuse
//
// A solve's state — the working bounds, the values, statuses and basis,
// the reduced costs, the scratch vectors and phase-1 costs, the factor's
// permutation and scratch, one backing store each for the base-eta and
// update-eta nonzeros, and the model buffers and Start one-shot solves
// compile and restore into — lives in a workspace drawn from a
// process-wide sync.Pool and returned when the solve ends. The invariant
// that makes reuse safe: loading a model resizes and clears every buffer
// the workspace owns, and the eta stores are rewound on every identity
// reset and refactorization, so no value of an earlier solve is ever read
// by a later one; the workspace may reference a model's read-only arrays
// and a Start's base etas, which no solve writes, and drops those
// references when it returns to the pool; and nothing that escapes a
// solve (Solution.X, Solution.Duals, the basis snapshot) points into a
// workspace, a model or a Start — those are always freshly allocated,
// three objects per optimal result: X and Duals share one buffer, the
// snapshot's row and flip lists another, and the *Basis. A
// workspace belongs to one solve at a time, so concurrent solves never
// share mutable state (they may share a model and a Start), and results
// are bit-identical whichever workspace served them.
//
// # Warm starts
//
// SolveFrom adds the dual-simplex re-optimization path that the
// branch-and-bound solver leans on. An optimal solve records its basis
// as Solution.Basis — an opaque *Basis naming the basic column at each
// position (structural index, or "the slack of row i") plus the set of
// columns resting at their upper bound. The encoding is shape-stable:
// appended rows (branch-and-bound bound rows, cut rows) enter with their
// own slack basic. Restoring refactorizes the named columns, which is
// numerically fresh by construction, and prices the nonbasic columns.
// NewBasis builds a basis from a list of one basic column per row, for a
// caller that knows a problem's optimal basis without solving it.
//
// Neither step depends on the bounds, so a basis is restored once per
// branch-and-bound node, not once per child: Model.Restore writes the
// factorization and the reduced costs into a Start, and Model.SolveFrom
// starts each child from it — the child's statuses from the snapshot
// under its own bounds, the Start's base etas read in place (a child
// that refactorizes writes its own), and the Start's reduced costs for
// the dual feasibility check. Restore runs the same code and minimum
// pivot a one-shot SolveFrom runs inline, so a child solved through a
// Start is bit-identical to the one-shot re-solve from the same basis. A
// nil, failed or stale Start solves cold.
//
// The restored basis stays dual feasible across bound changes because
// reduced costs depend on the basis and the cost vector, never on b, lo
// or hi. Dual-simplex pivots repair primal feasibility, a short primal
// polish cleans roundoff, and the result is verified (bounds and dual
// feasibility) before being reported. Any rejection along the way —
// nil, mismatched or singular basis, lost dual feasibility, an
// iteration cap, a failed final verification — falls back transparently
// to the cold two-phase solve, with the rejected attempt's pivots still
// counted in Solution.Iterations so warm-vs-cold comparisons stay
// honest.
//
// # Gomory cuts from the factorized basis
//
// SolveGomory layers fractional cutting planes on top of the same kernel
// for pure integer programs with integral data; the milp package applies
// it at the root of the branch-and-bound tree. No tableau is formed. At
// an optimal basis, row p of B^{-1}·[A | I] is
//
//	x_B(p) + Σ_{j nonbasic} α_j·x_j = β_p,   α_j = ρ·a_j,  ρ = B^{-T}·e_p,
//
// so one BTRAN of the unit vector e_p gives ρ and one dot product per
// nonbasic CSC column gives the row — the same step the dual ratio test
// takes. The textbook Gomory cut assumes every nonbasic variable sits at
// 0 and can only increase; with general bounds a nonbasic variable may
// rest at a nonzero lower bound, or at its upper bound, from which it can
// only decrease. Each nonbasic coordinate is therefore measured from its
// resting bound: y_j = x_j - lo_j at the lower bound, y_j = hi_j - x_j at
// the upper (negating α_j). Every y_j is then >= 0 and zero at the
// current vertex, the classic derivation applies verbatim, and the cut
// Σ frac(α'_j)·y_j >= frac(x̄_B(p)) is translated back to original x
// coordinates before being appended as a constraint row: a slack enters
// through s_i = b_i - A_i·x, with LE slacks resting at 0 from below
// (y = s_i) and GE slacks at 0 from above (y = -s_i); fixed columns,
// EQ-row slacks included, are zero in y at every feasible point and drop
// out.
//
// Validity requires every finite bound to be integral (within 1e-9) so
// each y_j is integral at integer points; when any bound is fractional
// SolveGomory degrades to a cut-free solve rather than risk cutting off
// integer points. Every round after the first re-solves warm from the
// previous round's basis, with the new cut rows entering slack-basic.
package lp

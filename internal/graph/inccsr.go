package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"trail/internal/sparse"
)

// The adjacency store and its CSR emission (DESIGN.md §3j).
//
// rowStore is the graph's only edge storage: slack-slotted rows whose
// int32 column array wraps directly as a CSR ColIdx. Every row owns a
// slot with spare capacity; appends go into the slack (amortised O(1),
// relocating a row to the tail when its slot fills), and a parallel
// byte per entry packs the edge type and the forward-direction bit.
//
// CSR() emits packed snapshots from the rows by splicing: rows whose
// entry set did not change since the previous emission block-copy out
// of the previous snapshot, and only the delta rows gather from the
// slots. The derived artefacts — mean scales, the degree-descending
// permutation and its permuted view — are installed on the snapshot at
// emission. The streaming path additionally reads a zero-copy slacked
// live view whose sym-normalisation values are maintained in place,
// repaired only for the rows a delta touched; its value buffers exist
// only once the live view is first requested.
//
// Bit-identity contract: every emitted snapshot is bit-for-bit the
// matrix a from-scratch pack of the rows would build.
//   - Adjacency values are exact ones, so row sums are exact integers:
//     invSqrt[i] = 1/Sqrt(float64(deg)) and the mean scale 1/float64(deg)
//     equal the from-scratch accumulations bitwise.
//   - A sym entry is 1·(invSqrt[i]·invSqrt[j]); multiplying by 1 is
//     exact, so the repaired product matches SymNormalized bitwise.
//   - The adjacency is append-only, so a row whose entry set did not
//     change since the previous emission is byte-identical in the new
//     one: emission splices only the delta rows and block-copies
//     unchanged runs straight out of the previous snapshot.
//
// The reorder cache is the one deliberate exception to snapshot-level
// identity with a from-scratch build: the degree-descending order is a
// cache-locality heuristic, and every consumer uses the permuted view as
// a row-local gather/scatter (row r of the view is row Perm[r] of the
// base, with the within-row entry order preserved), so kernel results
// are bit-identical for ANY valid permutation. Emission therefore keeps
// the previous permutation sticky — new nodes append at the tail, and
// degree drift accumulates — and re-sorts to exact degree order only
// when the drifted-row count crosses sparse.ReorderMinRows. That is what
// lets the permuted view be spliced from the previous emission too,
// instead of re-gathered O(nnz) per cut: under a sticky permutation the
// relabelling (Inv) of pre-existing IDs never moves.
//
// The whole contract is pinned by the mutation-sequence fuzz harness in
// inccsr_test.go, which compares every emission against a from-scratch
// oracle: matrix-level identity (adjacency, normalisations) and
// kernel-level identity (permuted SpMM scattered back vs the unpermuted
// run).
type rowStore struct {
	// Slot layout: row i's live entries are col[start[i]:end[i]] (with
	// meta alongside) inside a slot of rcap[i] entries. start has one
	// extra element so the buffer can be wrapped as a CSR RowPtr directly
	// (the last element is scratch).
	start []int
	end   []int
	rcap  []int
	col   []int32
	meta  []edgeMeta

	used  int // high-water offset in col/meta
	waste int // slots abandoned by row relocations
	nnz   int // live entries

	// Live view buffers, nil until the live view is first requested: sym
	// is the sym-normalised value buffer parallel to col, ones an all-ones
	// buffer of the same length, invSqrt the per-node normalisation
	// scalar, and symStale the nodes whose degree changed since the last
	// sym repair.
	sym      []float64
	ones     []float64
	invSqrt  []float64
	symStale map[NodeID]struct{}

	// Emission state. colDirty holds rows whose entry set changed since
	// the previous emission (the splice set; tracked once there is a
	// previous emission to splice from). permDirty holds nodes whose
	// degree changed since lastPerm was last brought to exact degree
	// order (tracked once there is a permutation; drift accumulates
	// across sticky emissions).
	colDirty  map[NodeID]struct{}
	permDirty map[NodeID]struct{}
	// lastPerm is the sticky permutation (nil before the first emission
	// above the reorder gate); lastP wraps it with its inverse. Both are
	// shared read-only with emitted snapshots.
	lastPerm []int32
	lastP    *sparse.Permutation
	// lastM / lastPM are the previous emission's packed base and permuted
	// view (immutable), the splice sources for the next emission.
	lastM  *sparse.Matrix
	lastPM *sparse.Matrix
	// dirtyMark is a reusable n-sized scratch marking colDirty rows
	// during a splice.
	dirtyMark []bool
}

// edgeMeta packs an entry's EdgeType (low bits) and whether the entry
// is the edge's schema (forward) direction (fwdBit).
type edgeMeta uint8

const fwdBit edgeMeta = 0x80

func metaOf(t EdgeType, fwd bool) edgeMeta {
	if fwd {
		return edgeMeta(t) | fwdBit
	}
	return edgeMeta(t)
}

func (m edgeMeta) typ() EdgeType { return EdgeType(m &^ fwdBit) }
func (m edgeMeta) fwd() bool     { return m&fwdBit != 0 }

// csrCompactMinSlots gates slot-buffer compaction: below this many used
// slots the waste from relocations is too small to matter. Tests lower
// it to force compaction onto small fixtures.
var csrCompactMinSlots = 1 << 16

// slackFor is the spare capacity given to a row of degree d at (re)pack
// time: proportional headroom for hubs, a couple of free slots for
// everyone else.
func slackFor(d int) int { return d + d/4 + 2 }

func newRowStore() rowStore {
	return rowStore{
		start:     []int{0},
		colDirty:  make(map[NodeID]struct{}),
		permDirty: make(map[NodeID]struct{}),
	}
}

// layout sizes an empty store for rows of the given final degrees, each
// slot with slackFor headroom, so a replay of those edges never
// relocates.
func (s *rowStore) layout(deg []int) {
	n := len(deg)
	s.start = make([]int, n+1)
	s.end = make([]int, n)
	s.rcap = make([]int, n)
	total := 0
	for _, d := range deg {
		total += slackFor(d)
	}
	total = max(total, 64)
	s.col = make([]int32, total)
	s.meta = make([]edgeMeta, total)
	off := 0
	for i, d := range deg {
		s.start[i], s.end[i], s.rcap[i] = off, off, slackFor(d)
		off += s.rcap[i]
	}
	s.used = off
	s.start[n] = off
}

func (s *rowStore) degree(i NodeID) int { return s.end[i] - s.start[i] }

// row returns row i's live column entries (a view into the store).
func (s *rowStore) row(i NodeID) []int32 { return s.col[s.start[i]:s.end[i]] }

// has reports whether edge u-(t)-v is stored in either direction,
// scanning the shorter of the two rows.
func (s *rowStore) has(u, v NodeID, t EdgeType) bool {
	if s.degree(v) < s.degree(u) {
		u, v = v, u
	}
	for k := s.start[u]; k < s.end[u]; k++ {
		if s.col[k] == int32(v) && s.meta[k].typ() == t {
			return true
		}
	}
	return false
}

// addNode appends a fresh degree-0 row (empty slot at the tail; its
// first append will tail-extend in place).
func (s *rowStore) addNode() {
	id := NodeID(len(s.end))
	s.start[len(s.start)-1] = s.used
	s.start = append(s.start, 0)
	s.end = append(s.end, s.used)
	s.rcap = append(s.rcap, 0)
	if s.sym != nil {
		s.invSqrt = append(s.invSqrt, 0)
	}
	if s.lastPerm != nil {
		s.permDirty[id] = struct{}{}
	}
}

// addEdge appends the two entries of u-(t)->v and marks both endpoints
// for whatever derived state is being maintained.
func (s *rowStore) addEdge(u, v NodeID, t EdgeType) {
	s.appendEntry(u, int32(v), metaOf(t, true))
	s.appendEntry(v, int32(u), metaOf(t, false))
	for _, id := range [2]NodeID{u, v} {
		if s.sym != nil {
			s.symStale[id] = struct{}{}
		}
		if s.lastPerm != nil {
			s.permDirty[id] = struct{}{}
		}
		if s.lastM != nil {
			s.colDirty[id] = struct{}{}
		}
	}
}

func (s *rowStore) appendEntry(i NodeID, j int32, m edgeMeta) {
	deg := s.end[i] - s.start[i]
	if deg == s.rcap[i] { // slot full
		if s.start[i]+s.rcap[i] == s.used { // tail row: extend in place
			s.ensure(1)
			s.rcap[i]++
			s.used++
		} else { // relocate to a doubled slot at the tail
			newCap := max(2*deg, 4)
			s.ensure(newCap)
			ns, os := s.used, s.start[i]
			copy(s.col[ns:ns+deg], s.col[os:os+deg])
			copy(s.meta[ns:ns+deg], s.meta[os:os+deg])
			if s.sym != nil {
				copy(s.sym[ns:ns+deg], s.sym[os:os+deg])
			}
			s.start[i] = ns
			s.end[i] = ns + deg
			s.rcap[i] = newCap
			s.used += newCap
			s.waste += deg // the abandoned slot's live span; its slack was never counted
		}
	}
	s.col[s.end[i]] = j
	s.meta[s.end[i]] = m
	// A live sym slot stays stale; repairSym fills it (i is in symStale).
	s.end[i]++
	s.nnz++
}

// ensure grows the slot buffers so at least k more slots fit past used.
func (s *rowStore) ensure(k int) {
	need := s.used + k
	if need <= len(s.col) {
		return
	}
	sz := max(2*len(s.col), need, 64)
	s.col = resized(s.col, sz)
	s.meta = resized(s.meta, sz)
	if s.sym != nil {
		s.sym = resized(s.sym, sz)
		s.ones = onesOf(sz)
	}
}

// resized returns a copy of xs grown to n elements.
func resized[T any](xs []T, n int) []T {
	out := make([]T, n)
	copy(out, xs)
	return out
}

func onesOf(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// materialiseLive allocates the live view's value buffers and derives
// every sym value from the rows.
func (s *rowStore) materialiseLive() {
	n := len(s.end)
	s.sym = make([]float64, len(s.col))
	s.ones = onesOf(len(s.col))
	s.invSqrt = make([]float64, n)
	s.symStale = make(map[NodeID]struct{})
	for i := 0; i < n; i++ {
		if d := s.end[i] - s.start[i]; d > 0 {
			s.invSqrt[i] = 1 / math.Sqrt(float64(d))
		}
	}
	for i := 0; i < n; i++ {
		inv := s.invSqrt[i]
		for k := s.start[i]; k < s.end[i]; k++ {
			s.sym[k] = inv * s.invSqrt[s.col[k]]
		}
	}
}

// repairSym re-derives invSqrt for degree-changed nodes and rewrites the
// sym values of exactly the rows whose entries reference a changed
// scalar: the stale rows themselves plus their neighbours (an entry
// (i,j) is invSqrt[i]·invSqrt[j], and j∈stale means i is a neighbour of
// j). O(one-hop volume of the delta). No-op without a live view.
func (s *rowStore) repairSym() {
	if len(s.symStale) == 0 {
		return
	}
	for id := range s.symStale {
		s.invSqrt[id] = 0
		if d := s.end[id] - s.start[id]; d > 0 {
			s.invSqrt[id] = 1 / math.Sqrt(float64(d))
		}
	}
	rows := make(map[NodeID]struct{}, 3*len(s.symStale))
	for id := range s.symStale {
		rows[id] = struct{}{}
		for k := s.start[id]; k < s.end[id]; k++ {
			rows[NodeID(s.col[k])] = struct{}{}
		}
	}
	for id := range rows {
		inv := s.invSqrt[id]
		for k := s.start[id]; k < s.end[id]; k++ {
			s.sym[k] = inv * s.invSqrt[s.col[k]]
		}
	}
	clear(s.symStale)
}

// maybeCompact repacks the slot buffers with fresh slack when relocation
// waste dominates. Called at emission, after repairSym (so live sym
// values are valid when copied).
func (s *rowStore) maybeCompact() {
	if s.used <= csrCompactMinSlots || 2*s.waste <= s.used {
		return
	}
	old := *s
	deg := make([]int, len(s.end))
	for i := range deg {
		deg[i] = s.end[i] - s.start[i]
	}
	s.layout(deg)
	s.waste = 0
	if old.sym != nil {
		s.sym = make([]float64, len(s.col))
		s.ones = onesOf(len(s.col))
	}
	for i, d := range deg {
		ns, os := s.start[i], old.start[i]
		copy(s.col[ns:ns+d], old.col[os:os+d])
		copy(s.meta[ns:ns+d], old.meta[os:os+d])
		if s.sym != nil {
			copy(s.sym[ns:ns+d], old.sym[os:os+d])
		}
		s.end[i] = ns + d
	}
}

// emitPerm returns the reorder permutation for the next emission.
//
// Steady state is the sticky path: the previous permutation is reused
// verbatim (new nodes appended at the tail in ID order), which keeps the
// inverse mapping of pre-existing IDs frozen so the permuted view can be
// spliced instead of re-gathered. Degree drift accumulates in permDirty;
// when it crosses sparse.ReorderMinRows the permutation is brought back
// to exact degree-descending order — by merging the re-sorted drifted
// IDs into the still-sorted remainder when possible, or by a full
// re-sort (repaired=false, the patch-fallback case) on the first
// emission. Either way the result is bit-identical to what
// sparse.DegreePermutation would build at that instant: the sort is a
// strict total order (degree descending, ID ascending on ties — what
// sort.SliceStable over identity produces), so merge and re-sort agree.
//
// sticky reports that the returned permutation equals the previous
// emission's for all pre-existing rows (the permuted-splice
// precondition).
func (s *rowStore) emitPerm() (p *sparse.Permutation, sticky, repaired bool) {
	n := len(s.end)
	if s.lastPerm != nil && len(s.permDirty) < sparse.ReorderMinRows {
		if len(s.lastPerm) < n {
			np := make([]int32, n)
			copy(np, s.lastPerm)
			for i := len(s.lastPerm); i < n; i++ {
				np[i] = int32(i)
			}
			s.lastPerm = np
			s.lastP = sparse.NewPermutation(np)
		}
		return s.lastP, true, true
	}

	degOf := func(i int32) int { return s.end[i] - s.start[i] }
	less := func(a, c int32) bool {
		da, dc := degOf(a), degOf(c)
		if da != dc {
			return da > dc
		}
		return a < c
	}
	var perm []int32
	if s.lastPerm != nil && len(s.permDirty) < n {
		stable := make([]int32, 0, n-len(s.permDirty))
		for _, id := range s.lastPerm {
			if _, dirty := s.permDirty[NodeID(id)]; !dirty {
				stable = append(stable, id)
			}
		}
		changed := make([]int32, 0, len(s.permDirty))
		for id := range s.permDirty {
			changed = append(changed, int32(id))
		}
		slices.SortFunc(changed, func(a, c int32) int {
			if less(a, c) {
				return -1
			}
			return 1
		})
		perm = make([]int32, 0, n)
		i, j := 0, 0
		for i < len(stable) && j < len(changed) {
			if less(stable[i], changed[j]) {
				perm = append(perm, stable[i])
				i++
			} else {
				perm = append(perm, changed[j])
				j++
			}
		}
		perm = append(perm, stable[i:]...)
		perm = append(perm, changed[j:]...)
		repaired = true
	} else {
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.SliceStable(perm, func(a, c int) bool { return degOf(perm[a]) > degOf(perm[c]) })
	}
	s.lastPerm = perm
	s.lastP = sparse.NewPermutation(perm)
	clear(s.permDirty)
	return s.lastP, false, repaired
}

// markColDirty refreshes the splice scratch: dirtyMark[i] reports that
// row i's entry set changed since the previous emission.
func (s *rowStore) markColDirty(n int) {
	if cap(s.dirtyMark) < n {
		s.dirtyMark = make([]bool, n)
	} else {
		s.dirtyMark = s.dirtyMark[:n]
		clear(s.dirtyMark)
	}
	for id := range s.colDirty {
		if int(id) < n {
			s.dirtyMark[id] = true
		}
	}
}

// spliceRows fills dst (a fresh packed colIdx) by copying delta rows out
// of the slot buffer — relabelled through inv when building a permuted
// view — and block-copying runs of unchanged rows straight from the
// previous emission old. rowOf maps a destination row to its source node
// (identity for the base layout, Perm for the permuted one); old may be
// nil (first emission), which degenerates to an all-rows gather. The
// append-only adjacency guarantees an unchanged row is byte-identical
// between consecutive emissions, and a sticky permutation guarantees
// inv is frozen for every ID an unchanged row can reference, so block
// copies are exact.
func (s *rowStore) spliceRows(dst []int32, rowPtr []int, old *sparse.Matrix, rowOf func(int) int32, inv []int32) {
	n := len(rowPtr) - 1
	oldN := 0
	if old != nil {
		oldN = old.Rows
	}
	for r := 0; r < n; {
		u := rowOf(r)
		if r < oldN && !s.dirtyMark[u] {
			j := r + 1
			for j < oldN && !s.dirtyMark[rowOf(j)] {
				j++
			}
			copy(dst[rowPtr[r]:rowPtr[j]], old.ColIdx[old.RowPtr[r]:old.RowPtr[j]])
			r = j
			continue
		}
		if inv == nil {
			copy(dst[rowPtr[r]:rowPtr[r+1]], s.col[s.start[u]:s.end[u]])
		} else {
			k := rowPtr[r]
			for q := s.start[u]; q < s.end[u]; q++ {
				dst[k] = inv[s.col[q]]
				k++
			}
		}
		r++
	}
}

// packed emits an immutable packed snapshot with the hot derived caches
// pre-installed: the adjacency CSR, its mean normalisation, and (above
// the reorder gate) the permuted view with its mean scales. The sym
// normalisation stays lazy — the streaming path reads it through the
// live slacked view, where it is maintained in place, and a lazy rebuild
// on the packed snapshot multiplies the same exact invSqrt pairs, so it
// is bit-identical whenever a consumer does ask. fullSort reports that
// the permutation had to be re-sorted from scratch (the patch-fallback
// case, also the first emission above the gate).
func (s *rowStore) packed() (m *sparse.Matrix, fullSort bool) {
	s.repairSym()
	s.maybeCompact()
	n := len(s.end)
	rowPtr := make([]int, n+1)
	meanScale := make([]float64, n)
	for i := 0; i < n; i++ {
		d := s.end[i] - s.start[i]
		rowPtr[i+1] = rowPtr[i] + d
		if d > 0 {
			meanScale[i] = 1 / float64(d)
		}
	}
	nnz := rowPtr[n]
	colIdx := make([]int32, nnz)
	s.markColDirty(n)
	s.spliceRows(colIdx, rowPtr, s.lastM, func(r int) int32 { return int32(r) }, nil)

	m = sparse.New(n, n, rowPtr, colIdx, nil)
	m.InstallMeanNormalized(m.WithValues(nil, meanScale))

	if n >= sparse.ReorderMinRows {
		p, sticky, repaired := s.emitPerm()
		fullSort = !repaired
		if p.IsIdentity() {
			m.InstallReordered(m, nil)
			s.lastPM = nil
		} else {
			pmRowPtr := make([]int, n+1)
			for r := 0; r < n; r++ {
				u := p.Perm[r]
				pmRowPtr[r+1] = pmRowPtr[r] + (s.end[u] - s.start[u])
			}
			pmCol := make([]int32, nnz)
			var oldPM *sparse.Matrix
			if sticky {
				// Splice precondition: row r of the previous permuted view
				// is the same source node, and Inv of pre-existing IDs is
				// frozen. Both hold only on the sticky path.
				oldPM = s.lastPM
			}
			s.spliceRows(pmCol, pmRowPtr, oldPM, func(r int) int32 { return p.Perm[r] }, p.Inv)
			pm := sparse.New(n, n, pmRowPtr, pmCol, nil)
			// Gather the mean scales through the permutation instead of
			// recomputing (a degree is a degree in any row order, so the
			// gathered scales are bit-identical).
			pmMean := make([]float64, n)
			for r, src := range p.Perm {
				pmMean[r] = meanScale[src]
			}
			pm.InstallMeanNormalized(pm.WithValues(nil, pmMean))
			m.InstallReordered(pm, p)
			s.lastPM = pm
		}
	}
	s.lastM = m
	clear(s.colDirty)
	return m, fullSort
}

// live returns a transient zero-copy slacked view over the store's own
// buffers, with the sym normalisation pre-installed (sharing the same
// structure), materialising the value buffers on first use. Valid only
// until the next mutation; intended for the single-threaded ingest
// apply loop between cuts.
func (s *rowStore) live() *sparse.Matrix {
	if s.sym == nil {
		s.materialiseLive()
	}
	s.repairSym()
	n := len(s.end)
	s.start[n] = s.used
	adj := sparse.NewSlackedOf[float64](n, n, s.start, s.end, s.col, s.ones, s.nnz)
	adj.InstallSymNormalized(sparse.NewSlackedOf[float64](n, n, s.start, s.end, s.col, s.sym, s.nnz))
	return adj
}

// EnableCSRPatch materialises (on) or releases (off) the live view's
// sym-normalisation mirror ahead of the first LiveCSR call, which would
// otherwise materialise it lazily. CSR() always emits spliced snapshots
// from the rows regardless. Kept because the benchmark harness in
// perfbench/ calls it.
func (g *Graph) EnableCSRPatch(on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case !on:
		g.rows.sym, g.rows.ones, g.rows.invSqrt, g.rows.symStale = nil, nil, nil, nil
	case g.rows.sym == nil:
		g.rows.materialiseLive()
	}
}

// LiveCSR returns a transient slack-slotted view of the current
// adjacency with its sym normalisation pre-installed, sharing the
// store's buffers: no packing, no copying, no re-normalisation. The
// view (and anything derived from it) is only valid until the graph's
// next mutation, and callers must not retain it across mutations — it
// is meant for the single-threaded streaming apply loop, which consumes
// it before applying the next event. The first call materialises the
// sym value buffers (8 bytes per slot each for sym and ones); graphs
// that never ask do not pay for them.
func (g *Graph) LiveCSR() *sparse.Matrix {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rows.live()
}

// AdoptCSR installs a prebuilt packed snapshot (typically the CSR of the
// graph this one was cloned from) as g's cached CSR, so the clone's
// consumers reuse the snapshot's pre-installed normalisation and
// reorder caches instead of rebuilding them. The snapshot must match g's
// current shape.
func (g *Graph) AdoptCSR(m *sparse.Matrix) error {
	if m == nil || m.Slacked() {
		return fmt.Errorf("graph: AdoptCSR: snapshot must be packed")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if m.Rows != len(g.nodes) || m.NNZ() != 2*g.edgeCount {
		return fmt.Errorf("graph: AdoptCSR: snapshot %dx%d/%d entries does not match graph %d nodes/%d edges",
			m.Rows, m.Cols, m.NNZ(), len(g.nodes), g.edgeCount)
	}
	g.csr = m
	return nil
}

// CSRPatchStats counts snapshot emissions: Applied are emissions that
// reused or merge-repaired the previous permutation (or needed none,
// below the reorder gate), Fallback are emissions whose permutation
// needed a full re-sort (including the first emission above the
// reorder gate).
type CSRPatchStats struct {
	Applied  uint64
	Fallback uint64
}

// CSRPatchStats returns the emission counters.
func (g *Graph) CSRPatchStats() CSRPatchStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return CSRPatchStats{Applied: g.patchApplied, Fallback: g.patchFallback}
}

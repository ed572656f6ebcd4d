// Package canon computes canonical fingerprints of happens-before traces,
// the equivalence-class key behind HB-equivalence schedule pruning.
//
// Two executions belong to the same Mazurkiewicz trace class when they
// perform the same events and order them by the same happens-before
// partial order; every linearization of one class exposes exactly the
// same races ("Fast, Sound and Effectively Complete Dynamic Race
// Prediction" is the theoretical anchor — see DESIGN.md "Schedule
// pruning"). The fingerprint here is a stable hash of the partial order
// restricted to the events that matter for race detection — shared-memory
// accesses and dispatch machinery — invariant under any reordering (or
// relabeling) of HB-independent events, so a sweep can classify each
// executed schedule and run the detector once per class.
//
// Construction (sorted-minimal-linearization flavour of Foata normal
// form): every *relevant* operation — one that carries at least one event
// label — hashes its own sorted event multiset, its Foata layer (the
// number of relevant operations on the longest path reaching it), and the
// sorted hashes of its nearest relevant ancestors; irrelevant operations
// are transparent, forwarding their ancestors' contributions. The
// fingerprint is the hash of the sorted multiset of all relevant
// operation hashes. No operation ID ever enters a hash, so the result is
// invariant under graph isomorphism: only the labeled partial order
// matters. Collapsing two genuinely different classes requires a SHA-256
// collision; splitting one class into several (e.g. when a label embeds a
// schedule-dependent DOM serial) merely costs an extra detector pass and
// never loses a race.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
	"sync"
)

// Builder accumulates one execution's labeled happens-before DAG:
// operations are identified by dense 1-based IDs (matching op.ID), Edge
// declares ordering, and Event attaches the race-relevant labels that
// make an operation part of the fingerprint. IDs are only plumbing — the
// fingerprint is independent of how the DAG happens to be numbered.
//
// Edges and events are kept as two flat lists in insertion order and
// grouped per operation only when Fingerprint runs, so building costs
// two amortized appends rather than a slice per operation.
type Builder struct {
	n      int
	edges  []edge
	events []event
}

// edge and event hold 0-based operation indices.
type edge struct{ from, to int32 }

type event struct {
	id    int32
	label string
}

// New returns a Builder for a DAG of n operations with IDs 1..n. The
// event list is sized for one label per operation, the common shape.
func New(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n, events: make([]event, 0, n)}
}

// Len reports the number of operations the builder was sized for.
func (b *Builder) Len() int { return b.n }

// Edge records that operation `from` happens before operation `to`.
// Out-of-range or self edges are ignored, so callers can feed a graph's
// predecessor lists verbatim.
func (b *Builder) Edge(from, to int) {
	if from < 1 || to < 1 || from > b.n || to > b.n || from == to {
		return
	}
	b.edges = append(b.edges, edge{int32(from - 1), int32(to - 1)})
}

// Event attaches one race-relevant label to operation id — a shared
// memory access ("w var obj3.x [normal]") or a dispatch event
// ("op handler click #send"). An operation with at least one event is
// *relevant*: it contributes a node to the fingerprint. The same label
// may be added repeatedly; multiplicity is preserved (the event set is a
// multiset).
func (b *Builder) Event(id int, label string) {
	if id < 1 || id > b.n {
		return
	}
	b.events = append(b.events, event{int32(id - 1), label})
}

// scratch is Fingerprint's working memory. It is pooled: a sweep
// fingerprints every execution, and the buffers' sizes repeat from one
// execution to the next.
type scratch struct {
	predStart, preds []int32 // CSR: preds[predStart[i]:predStart[i+1]]
	succStart, succs []int32 // CSR successors, derived from preds
	evStart          []int32 // CSR over labels
	labels           []string
	indeg            []int32
	queue, order     []int32
	depth            []int32 // Foata layer: relevant ops on the longest path
	// near[i] is the range of arena holding i's nearest relevant
	// ancestors (sorted op indices): i itself when relevant, else the
	// union over predecessors. Identity — not hash — so a diamond
	// through one ancestor counts once while two distinct ancestors
	// that happen to hash equally still count twice.
	near   [][2]int32
	arena  []int32
	anc    []int32    // one node's ancestors
	hashes [][32]byte // relevant nodes only
	final  []int32    // relevant nodes
	msg    []byte     // one node's hash input
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledNodes bounds the scratch returned to the pool, so one huge
// trace does not pin its buffers for later, small ones.
const maxPooledNodes = 1 << 16

// sized returns s resliced to length n and zeroed, reusing its array
// when it is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// group fills the CSR predecessor, successor and label lists of b, and
// the in-degrees. Within one operation, predecessors and labels keep
// insertion order; successors are listed in ascending target order,
// then by insertion.
func (s *scratch) group(b *Builder) {
	n := b.n
	s.predStart = sized(s.predStart, n+1)
	s.succStart = sized(s.succStart, n+1)
	s.evStart = sized(s.evStart, n+1)
	for _, e := range b.edges {
		s.predStart[e.to+1]++
		s.succStart[e.from+1]++
	}
	for _, ev := range b.events {
		s.evStart[ev.id+1]++
	}
	for i := 0; i < n; i++ {
		s.predStart[i+1] += s.predStart[i]
		s.succStart[i+1] += s.succStart[i]
		s.evStart[i+1] += s.evStart[i]
	}
	// The in-degree array serves as each list's fill cursor first.
	cur := sized(s.indeg, n)
	s.preds = sized(s.preds, len(b.edges))
	for _, e := range b.edges {
		s.preds[s.predStart[e.to]+cur[e.to]] = e.from
		cur[e.to]++
	}
	clear(cur)
	s.succs = sized(s.succs, len(b.edges))
	for to := int32(0); to < int32(n); to++ {
		for _, p := range s.preds[s.predStart[to]:s.predStart[to+1]] {
			s.succs[s.succStart[p]+cur[p]] = to
			cur[p]++
		}
	}
	clear(cur)
	s.labels = sized(s.labels, len(b.events))
	for _, ev := range b.events {
		s.labels[s.evStart[ev.id]+cur[ev.id]] = ev.label
		cur[ev.id]++
	}
	for i := 0; i < n; i++ {
		cur[i] = s.predStart[i+1] - s.predStart[i]
	}
	s.indeg = cur
}

// release drops the label references and returns s to the pool.
func (s *scratch) release() {
	clear(s.labels)
	if len(s.predStart) > maxPooledNodes+1 || cap(s.arena) > 4*maxPooledNodes {
		return
	}
	scratchPool.Put(s)
}

// Fingerprint returns the canonical class hash as a 64-char hex string.
// It is a pure function of the labeled partial order: permuting
// HB-independent operations, renumbering IDs, or changing the insertion
// order of edges and events all leave it unchanged. The builder is not
// consumed; Fingerprint may be called again (and returns the same
// string). Inputs are expected to be DAGs; a cyclic input yields a
// deterministic but unspecified value rather than a panic, so fuzzers
// can feed arbitrary edge lists.
//
// Each relevant node hashes, through one reused buffer, the bytes
// 'N' · u32(layer) · u32(#events) · (u32(len) · label)* · u32(#anc) ·
// hash*, with labels and ancestor hashes sorted; the result hashes 'T' ·
// u32(#nodes) · hash* over the sorted node hashes (u32 little-endian).
func (b *Builder) Fingerprint() string {
	s := scratchPool.Get().(*scratch)
	defer s.release()
	n := b.n
	s.group(b)

	// Kahn topological order. The processing order among ready nodes is
	// irrelevant: each node's hash depends only on its predecessors.
	queue, order := s.queue[:0], s.order[:0]
	for i := 0; i < n; i++ {
		if s.indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, i)
		for _, t := range s.succs[s.succStart[i]:s.succStart[i+1]] {
			s.indeg[t]--
			if s.indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(order) < n {
		// Cycle: append the unprocessed nodes in index order so the
		// result stays deterministic (contributions from unprocessed
		// predecessors are simply absent). Processed nodes are exactly
		// those whose in-degree reached zero.
		for i := 0; i < n; i++ {
			if s.indeg[i] != 0 {
				order = append(order, int32(i))
			}
		}
	}
	s.queue, s.order = queue, order

	s.depth = sized(s.depth, n)
	s.near = sized(s.near, n)
	s.hashes = sized(s.hashes, n)
	s.arena, s.final = s.arena[:0], s.final[:0]
	msg := s.msg[:0]
	for _, i := range order {
		preds := s.preds[s.predStart[i]:s.predStart[i+1]]
		d := int32(0)
		for _, p := range preds {
			d = max(d, s.depth[p])
		}
		anc := s.gather(preds)
		labels := s.labels[s.evStart[i]:s.evStart[i+1]]
		if len(labels) == 0 {
			// Irrelevant: transparent, it forwards its ancestors.
			s.depth[i] = d
			s.near[i] = s.push(anc...)
			continue
		}
		d++
		sort.Strings(labels)
		s.sortByHash(anc)
		msg = append(msg[:0], 'N')
		msg = binary.LittleEndian.AppendUint32(msg, uint32(d))
		msg = binary.LittleEndian.AppendUint32(msg, uint32(len(labels)))
		for _, l := range labels {
			msg = binary.LittleEndian.AppendUint32(msg, uint32(len(l)))
			msg = append(msg, l...)
		}
		msg = binary.LittleEndian.AppendUint32(msg, uint32(len(anc)))
		for _, a := range anc {
			msg = append(msg, s.hashes[a][:]...)
		}
		s.hashes[i] = sha256.Sum256(msg)
		s.depth[i] = d
		s.near[i] = s.push(i)
		s.final = append(s.final, i)
	}
	s.sortByHash(s.final)
	msg = append(msg[:0], 'T')
	msg = binary.LittleEndian.AppendUint32(msg, uint32(len(s.final)))
	for _, i := range s.final {
		msg = append(msg, s.hashes[i][:]...)
	}
	s.msg = msg
	sum := sha256.Sum256(msg)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// sortByHash sorts relevant nodes into ascending byte order of their
// hashes. Equal hashes are interchangeable, so the order among them is
// immaterial.
func (s *scratch) sortByHash(nodes []int32) {
	slices.SortFunc(nodes, func(x, y int32) int {
		return bytes.Compare(s.hashes[x][:], s.hashes[y][:])
	})
}

// gather returns, in s.anc, the sorted and duplicate-free union of the
// nearest relevant ancestor sets of preds: one sort per node, where
// merging the sets pairwise would cost O(d²) for in-degree d.
func (s *scratch) gather(preds []int32) []int32 {
	anc := s.anc[:0]
	for _, p := range preds {
		r := s.near[p]
		anc = append(anc, s.arena[r[0]:r[1]]...)
	}
	if len(preds) > 1 {
		slices.Sort(anc)
		anc = slices.Compact(anc)
	}
	s.anc = anc
	return anc
}

// push appends a nearest-ancestor set to the arena and returns its range.
func (s *scratch) push(set ...int32) [2]int32 {
	start := int32(len(s.arena))
	s.arena = append(s.arena, set...)
	return [2]int32{start, int32(len(s.arena))}
}

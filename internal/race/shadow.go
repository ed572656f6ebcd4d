package race

import (
	"hash/maphash"
	"math/bits"

	"webracer/internal/mem"
	"webracer/internal/op"
)

// rec is one remembered access in shadow memory. The location is the
// table key every record of a word shares, so it is not stored again, and
// the description is a slot of the detector's descTable; access rebuilds
// the full access from the key and the table, byte for byte.
type rec struct {
	op   op.ID
	kind mem.AccessKind
	ctx  mem.Context
	desc int32 // descEmpty, descLocName, or a descTable slot (from 1)
}

// rec.desc values below the first slot.
const (
	descEmpty   int32 = 0  // the access has no description
	descLocName int32 = -1 // the description is the location's name
)

// access rebuilds the remembered access to l.
func (r rec) access(l mem.Loc, t *descTable) Access {
	return Access{Kind: r.kind, Loc: l, Op: r.op, Ctx: r.ctx, Desc: t.get(r.desc, l)}
}

// descTable holds the descriptions of a detector's remembered accesses,
// so a shadow word carries an int32 instead of a string header. A
// variable read or write describes itself by the variable's name, which
// the word's key already holds, and many accesses have no description;
// those take no slot while the record they replace held none. A record
// that is overwritten hands its slot to its successor whatever the
// successor's description, so a word holds at most two slots however
// often it is written. Slots live in fixed-size chunks that are never
// reallocated.
type descTable struct {
	chunks [][]string
	n      int
}

// descChunk slots (16 bytes each) fill one 1 KiB size class.
const (
	descChunkBits = 6
	descChunk     = 1 << descChunkBits
)

// rec returns a's record. reuse is the desc field of the record a's
// replaces, whose slot (if it has one) a's record takes over; pass
// descEmpty when no record is replaced.
func (t *descTable) rec(a Access, reuse int32) rec {
	r := rec{op: a.Op, kind: a.Kind, ctx: a.Ctx}
	switch {
	case reuse > 0:
		r.desc = reuse
	case a.Desc == "":
		r.desc = descEmpty
		return r
	case a.Desc == a.Loc.Name:
		r.desc = descLocName
		return r
	default:
		if t.n&(descChunk-1) == 0 {
			t.chunks = append(t.chunks, make([]string, descChunk))
		}
		t.n++
		r.desc = int32(t.n)
	}
	*t.slot(r.desc) = a.Desc
	return r
}

func (t *descTable) slot(d int32) *string {
	i := int(d) - 1
	return &t.chunks[i>>descChunkBits][i&(descChunk-1)]
}

// get returns the description stored as d for an access to l.
func (t *descTable) get(d int32, l mem.Loc) string {
	switch d {
	case descEmpty:
		return ""
	case descLocName:
		return l.Name
	}
	return *t.slot(d)
}

// locTable is the detectors' shadow memory: one word of type W per
// logical location, each entry keeping its location and hash next to its
// word. Entries live in chunks that are never reallocated, each twice the
// size of the one before, so the table grows with the run and no word
// ever moves. An open-addressed index (linear probing, at most half
// full) finds them: a slot holds 0 when empty, else the entry's chunk
// and offset packed into an int32. The zero table is unusable; call
// init first.
type locTable[W any] struct {
	slots  []int32
	chunks [][]locEntry[W] // the last chunk has room; the others are full
	n      int
}

type locEntry[W any] struct {
	loc  mem.Loc
	hash uint32
	word W
}

const (
	// minChunk is the first chunk's size when no hint is given: a
	// near-empty page touches under ten locations, a corpus page about a
	// hundred.
	minChunk = 16
	// A slot packs the chunk number into its low chunkBits bits and the
	// offset above them, plus one; maxChunk keeps the result positive.
	chunkBits = 5
	maxChunk  = 1 << (31 - chunkBits - 1)
)

// init sizes the table for about hint locations (any hint is correct).
func (t *locTable[W]) init(hint int) {
	size := min(max(minChunk, hint), maxChunk)
	t.slots = make([]int32, 1<<bits.Len(uint(2*size-1)))
	t.chunks = [][]locEntry[W]{make([]locEntry[W], 0, size)}
}

// len returns the number of locations in the table.
func (t *locTable[W]) len() int { return t.n }

func (t *locTable[W]) entry(s int32) *locEntry[W] {
	s--
	return &t.chunks[s&(1<<chunkBits-1)][s>>chunkBits]
}

// lookup returns l's word, adding a zero word when l is new (added
// reports that). h must be the same function of l on every call.
func (t *locTable[W]) lookup(l mem.Loc, h uint32) (w *W, added bool) {
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if e := t.entry(s); e.hash == h && e.loc == l {
			return &e.word, false
		}
		i = (i + 1) & mask
	}
	if 2*(t.n+1) > len(t.slots) {
		t.rehash()
		mask = uint32(len(t.slots) - 1)
		for i = h & mask; t.slots[i] != 0; i = (i + 1) & mask {
		}
	}
	k := len(t.chunks) - 1
	c := t.chunks[k]
	if len(c) == cap(c) {
		c = make([]locEntry[W], 0, min(2*cap(c), maxChunk))
		t.chunks = append(t.chunks, c)
		k++
	}
	c = append(c, locEntry[W]{loc: l, hash: h})
	t.chunks[k] = c
	t.n++
	t.slots[i] = int32((len(c)-1)<<chunkBits|k) + 1
	return &c[len(c)-1].word, true
}

// rehash doubles the index and reinserts every entry from its stored
// hash; the entries themselves stay where they are.
func (t *locTable[W]) rehash() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint32(len(t.slots) - 1)
	for k, c := range t.chunks {
		for off := range c {
			i := c[off].hash & mask
			for t.slots[i] != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = int32(off<<chunkBits|k) + 1
		}
	}
}

// locSeed keys hashLoc; table layout is never observable, so a
// per-process seed is fine.
var locSeed = maphash.MakeSeed()

// hashLoc is the table hash of a location: the runtime string hash of
// its name mixed with its integer fields. It does not allocate.
func hashLoc(l mem.Loc) uint32 {
	h := maphash.String(locSeed, l.Name)
	h ^= l.Obj*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(l.Extra, 8)*0xc2b2ae3d27d4eb4f ^ uint64(l.Kind)
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	return uint32(h ^ h>>32)
}

// Package canon computes the trace-class fingerprint behind
// HB-equivalence schedule pruning: a hash of the part of one execution
// that the §5.1 race detectors can observe, equal for two
// executions exactly when that part coincides (up to a SHA-256
// collision). "Fast, Sound and Effectively Complete Dynamic Race
// Prediction" is the theoretical anchor; see DESIGN.md "Schedule
// pruning".
//
// An execution is fed as a multiset of dispatch-operation labels (Op)
// and, per memory location, its access stream in observed order (Loc).
// The hashed structure is, per location, one node per access carrying
// its label, an edge p→a for every conflicting pair (at least one side
// writes) with p observed first and p's operation equal to, or
// happening before, a's, and an observed-order chain over the accesses
// up to the location's final write. A location never written has no
// edges at all.
//
// Every access up to the final write sits on the chain, so its node's
// predecessors all lie on the chain, and chain node j is determined by
// its label, the positions of its predecessors and chain node j−1; a
// read after the final write, by its label, its predecessors' positions
// and the last of them. Each node therefore hashes in one pass, with no
// sort: a node without predecessors is its label, any other node the
// SHA-256 of its label, the bitmap of its predecessors' stream positions
// and the item of its last predecessor. This is the same partition as
// the Merkle hash of the whole labeled DAG, whose node hash folds the
// node's depth, label and sorted predecessor hashes: depths and
// predecessor hashes are recovered from the positions and the last
// predecessor's item, and vice versa.
//
// The fingerprint is the SHA-256 of the sorted multiset of all node
// items and dispatch labels, kept flat across locations: two locations
// may share a label (DOM serials are normalized away), and a
// predecessor-less read at either is the same element. No operation ID
// enters a hash; IDs only answer the happens-before queries.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Access is one access of a location stream: its label (whatever the
// detectors read — kind, normalized location, context), whether it
// writes, and the operation that performed it.
type Access struct {
	Label string
	Write bool
	Op    int32
}

// Builder accumulates one execution's fingerprint. The zero value is
// ready to use; Reset makes a used Builder ready again, keeping its
// buffers.
type Builder struct {
	labels  []string   // items of the predecessor-less nodes and dispatch labels
	digests [][32]byte // items of the nodes with predecessors
	chain   []item     // the current stream's items, up to its final write
	bits    []byte     // one node's predecessor positions
	msg     []byte     // one hash input
}

// item is a node's multiset element: its label when it has no
// predecessor, else digests[d].
type item struct {
	label string
	d     int32 // -1 for a label
}

// Reset empties b, keeping its buffers and dropping its label
// references.
func (b *Builder) Reset() {
	clear(b.labels)
	clear(b.chain)
	b.labels, b.digests, b.chain = b.labels[:0], b.digests[:0], b.chain[:0]
}

// Op adds one dispatch-operation label. Multiplicity counts.
func (b *Builder) Op(label string) { b.labels = append(b.labels, label) }

// Loc adds one location's access stream, in observed order. hb(x, y)
// reports whether operation x happens before operation y; it is asked
// only about pairs in which at least one side writes, up to the final
// write.
func (b *Builder) Loc(stream []Access, hb func(x, y int32) bool) {
	lastW := -1
	for j := range stream {
		if stream[j].Write {
			lastW = j
		}
	}
	if lastW < 0 {
		for j := range stream {
			b.labels = append(b.labels, stream[j].Label)
		}
		return
	}
	b.chain = b.chain[:0]
	for j := range stream {
		a := &stream[j]
		bits, top := b.bits[:0], -1
		for k := range min(j, lastW+1) {
			p := &stream[k]
			if k == j-1 && j <= lastW ||
				(a.Write || p.Write) && (p.Op == a.Op || hb(p.Op, a.Op)) {
				for len(bits) <= k>>3 {
					bits = append(bits, 0)
				}
				bits[k>>3] |= 1 << (k & 7)
				top = k
			}
		}
		b.bits = bits
		it := item{a.Label, -1}
		if top >= 0 {
			msg := appendString(b.msg[:0], a.Label)
			msg = binary.LittleEndian.AppendUint32(msg, uint32(len(bits)))
			msg = append(msg, bits...)
			msg = b.chain[top].encode(msg, b.digests)
			b.msg = msg
			b.digests = append(b.digests, sha256.Sum256(msg))
			it = item{d: int32(len(b.digests) - 1)}
		} else {
			b.labels = append(b.labels, a.Label)
		}
		if j <= lastW {
			b.chain = append(b.chain, it)
		}
	}
}

// encode appends it's self-delimiting encoding to dst: 'L' and the
// label, or 'D' and the digest.
func (it item) encode(dst []byte, digests [][32]byte) []byte {
	if it.d < 0 {
		return appendString(append(dst, 'L'), it.label)
	}
	return append(append(dst, 'D'), digests[it.d][:]...)
}

// appendString appends s with a u32 little-endian length prefix.
func appendString(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(s))), s...)
}

// Fingerprint returns the class hash as a 64-char hex string: the
// SHA-256 of 'T' · u32(#labels) · (u32(len) · label)* · u32(#digests) ·
// digest*, labels and digests each sorted. It sorts b's items in place
// and may be called again.
func (b *Builder) Fingerprint() string {
	slices.Sort(b.labels)
	slices.SortFunc(b.digests, func(x, y [32]byte) int { return bytes.Compare(x[:], y[:]) })
	msg := binary.LittleEndian.AppendUint32(append(b.msg[:0], 'T'), uint32(len(b.labels)))
	for _, l := range b.labels {
		msg = appendString(msg, l)
	}
	msg = binary.LittleEndian.AppendUint32(msg, uint32(len(b.digests)))
	for i := range b.digests {
		msg = append(msg, b.digests[i][:]...)
	}
	b.msg = msg
	sum := sha256.Sum256(msg)
	return hex.EncodeToString(sum[:])
}

package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// This file is the checkpoint container format: a sectioned envelope around
// the value codec (codec.go) that makes checkpoints incremental and cheap
// to verify. A container is either a full snapshot — every section of the
// frozen state — or a delta holding only the sections that changed since
// the previous checkpoint, chained onto it by (BaseEpoch, BaseSum).
// Materialize replays a full container plus its deltas back into one full
// container whose bytes are identical to a directly-encoded full snapshot
// of the same state.
//
// Integrity is two-layer and covers every byte exactly once:
//
//   - each section payload carries a CRC-32C in the section directory
//     (hardware-accelerated on amd64/arm64 — the payloads are the bulk of
//     a checkpoint, and this is the only checksum pass they pay);
//   - the framing (header + directory, which binds the payload checksums)
//     carries a CRC-32C trailer.
//
// The trailer therefore identifies the whole container content
// transitively, which is what delta chaining uses: a delta's BaseSum is
// its base container's trailer value, so a chain cannot silently skip or
// reorder links even though validation never re-hashes the base payloads.
//
// Section payloads are bare codec streams (codec.go): the container's magic
// and version are the only format marks, and its checksums the only ones. Sections appear in strictly ascending SectionID order, so the
// on-disk bytes are deterministic regardless of how many goroutines
// encoded the payloads.

// ContainerMagic identifies a checkpoint container; ContainerVersion is the
// checkpoint format's only version number, and the only one DecodeContainer
// reads.
const (
	ContainerMagic   = "LCSC"
	ContainerVersion = 3
)

// Container kinds.
const (
	KindFull  = 0 // self-contained snapshot: every section present
	KindDelta = 1 // only sections whose bytes changed since the base checkpoint
)

var (
	// ErrNotFull marks a delta container used where a self-contained
	// snapshot is required (restore entry points take fulls; chains go
	// through Materialize).
	ErrNotFull = errors.New("snapshot: delta container where a full snapshot is required")
	// ErrChainBroken marks a delta whose (BaseEpoch, BaseSum) does not
	// match the container it is being applied to.
	ErrChainBroken = errors.New("snapshot: delta does not chain onto its base")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the container layer's payload checksum (CRC-32C).
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// SectionID identifies one section of the frozen state: a section kind
// (ps assigns meta/server/worker/… ordinals) and an index within the kind
// (worker rank, recorder chunk number). Containers order sections by
// ascending (Kind, Index).
type SectionID struct {
	Kind  uint32
	Index uint32
}

// Less is the canonical section order.
func (a SectionID) Less(b SectionID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Index < b.Index
}

// Section is one encoded section: a codec stream plus its CRC-32C.
// Sum may be left zero when building a container; EncodeContainer computes
// it then. Decoded sections always carry the verified sum, and their
// Payload aliases the decoded buffer (zero-copy).
type Section struct {
	ID      SectionID
	Payload []byte
	Sum     uint32
}

// Container is one checkpoint in container form.
type Container struct {
	Kind      int    // KindFull or KindDelta
	Key       string // ConfigKey of the run; a snapshot cannot restore elsewhere
	Epoch     int    // barrier epoch of this checkpoint
	Seq       int    // 0-based checkpoint ordinal within the run
	BaseEpoch int    // delta only: barrier epoch of the base checkpoint
	BaseSum   uint32 // delta only: the base container's Sum
	Sum       uint32 // framing CRC-32C; set by EncodeContainer/DecodeContainer
	Sections  []Section
}

// EncodeContainer serializes c, returning the container bytes and the
// framing checksum (also stored into c.Sum). Sections must be in strictly
// ascending ID order — that invariant is what makes the bytes independent
// of encode parallelism — and sections with Sum == 0 get their checksum
// computed here. Encoding is deterministic: same sections, same bytes.
func EncodeContainer(c *Container) ([]byte, error) {
	headerLen := 4 + 4 + 4 + 4 + len(c.Key) + 8 + 8 + 8 + 4 + 4
	dirLen := len(c.Sections) * (4 + 4 + 8 + 4)
	payloadLen := 0
	for i := range c.Sections {
		s := &c.Sections[i]
		if i > 0 && !c.Sections[i-1].ID.Less(s.ID) {
			return nil, fmt.Errorf("snapshot: container sections out of order at %d (%v after %v)",
				i, s.ID, c.Sections[i-1].ID)
		}
		if s.Sum == 0 {
			s.Sum = Checksum(s.Payload)
		}
		payloadLen += len(s.Payload)
	}
	buf := make([]byte, 0, headerLen+dirLen+payloadLen+4)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	buf = append(buf, ContainerMagic...)
	u32(ContainerVersion)
	u32(uint32(c.Kind))
	u32(uint32(len(c.Key)))
	buf = append(buf, c.Key...)
	u64(uint64(c.Epoch))
	u64(uint64(c.Seq))
	u64(uint64(c.BaseEpoch))
	u32(c.BaseSum)
	u32(uint32(len(c.Sections)))
	for i := range c.Sections {
		s := &c.Sections[i]
		u32(s.ID.Kind)
		u32(s.ID.Index)
		u64(uint64(len(s.Payload)))
		u32(s.Sum)
	}
	c.Sum = Checksum(buf) // framing only: payload bytes are covered per-section
	for i := range c.Sections {
		buf = append(buf, c.Sections[i].Payload...)
	}
	u32(c.Sum)
	return buf, nil
}

// DecodeContainer parses and fully verifies container bytes: magic,
// version, framing checksum, section order, and every section payload's
// CRC-32C. Section payloads alias b. Any version but ContainerVersion is
// ErrVersion. What it accepts EncodeContainer turns back into the same
// bytes, which is why a full container naming a base (EncodeContainer and
// Materialize write none) is refused.
func DecodeContainer(b []byte) (*Container, error) {
	pos := 0
	fail := func(what string) (*Container, error) {
		return nil, fmt.Errorf("%w: container %s (offset %d)", ErrCorrupt, what, pos)
	}
	need := func(n int) bool { return len(b)-pos >= n }
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(b[pos:]); pos += 4; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(b[pos:]); pos += 8; return v }
	if !need(8) || string(b[:4]) != ContainerMagic {
		return nil, ErrBadMagic
	}
	pos = 4
	if v := u32(); v != ContainerVersion {
		return nil, fmt.Errorf("%w: format %d, this build reads %d", ErrVersion, v, ContainerVersion)
	}
	c := &Container{}
	if !need(8) {
		return fail("truncated header")
	}
	c.Kind = int(u32())
	if c.Kind != KindFull && c.Kind != KindDelta {
		return fail("unknown kind")
	}
	keyLen := int(u32())
	if keyLen > 1<<10 || !need(keyLen+8+8+8+4+4) {
		return fail("truncated header")
	}
	c.Key = string(b[pos : pos+keyLen])
	pos += keyLen
	c.Epoch = int(int64(u64()))
	c.Seq = int(int64(u64()))
	c.BaseEpoch = int(int64(u64()))
	c.BaseSum = u32()
	if c.Kind == KindFull && (c.BaseEpoch != 0 || c.BaseSum != 0) {
		return fail("chain reference on a full container")
	}
	nSections := int(u32())
	if nSections < 0 || nSections > 1<<24 || !need(nSections*20) {
		return fail("truncated directory")
	}
	c.Sections = make([]Section, nSections)
	lengths := make([]int, nSections)
	for i := range c.Sections {
		s := &c.Sections[i]
		s.ID.Kind = u32()
		s.ID.Index = u32()
		n := u64()
		if n > uint64(len(b)) {
			return fail("implausible section length")
		}
		lengths[i] = int(n)
		s.Sum = u32()
		if i > 0 && !c.Sections[i-1].ID.Less(s.ID) {
			return fail("sections out of order")
		}
	}
	c.Sum = Checksum(b[:pos]) // framing checksum covers header + directory
	for i := range c.Sections {
		if !need(lengths[i]) {
			return fail("truncated section payload")
		}
		c.Sections[i].Payload = b[pos : pos+lengths[i] : pos+lengths[i]]
		pos += lengths[i]
	}
	if !need(4) {
		return fail("missing checksum trailer")
	}
	if u32() != c.Sum {
		return nil, fmt.Errorf("%w: container framing", ErrChecksum)
	}
	if pos != len(b) {
		return fail("trailing bytes")
	}
	for i := range c.Sections {
		if Checksum(c.Sections[i].Payload) != c.Sections[i].Sum {
			return nil, fmt.Errorf("%w: section %v", ErrChecksum, c.Sections[i].ID)
		}
	}
	return c, nil
}

// Materialize replays a delta chain — one full container followed by its
// deltas in emission order — into a single full container. The result's
// bytes are identical to a directly-encoded full snapshot of the final
// state: same header fields as the last link (with the chain references
// cleared) and the union of all sections, later links overriding earlier
// ones, in canonical order. Chain validation is exact: each delta must name
// the preceding link's epoch and framing checksum.
func Materialize(chain ...[]byte) ([]byte, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("%w: empty checkpoint chain", ErrCorrupt)
	}
	base, err := DecodeContainer(chain[0])
	if err != nil {
		return nil, err
	}
	if base.Kind != KindFull {
		return nil, ErrNotFull
	}
	merged := map[SectionID]Section{}
	for _, s := range base.Sections {
		merged[s.ID] = s
	}
	last := base
	for i, link := range chain[1:] {
		d, err := DecodeContainer(link)
		if err != nil {
			return nil, fmt.Errorf("chain link %d: %w", i+1, err)
		}
		if d.Kind != KindDelta {
			return nil, fmt.Errorf("%w: chain link %d is not a delta", ErrCorrupt, i+1)
		}
		if d.Key != base.Key {
			return nil, fmt.Errorf("%w: chain link %d has key %.16s…, base has %.16s…", ErrChainBroken, i+1, d.Key, base.Key)
		}
		if d.BaseEpoch != last.Epoch || d.BaseSum != last.Sum {
			return nil, fmt.Errorf("%w: link %d bases on epoch %d (sum %08x), previous link is epoch %d (sum %08x)",
				ErrChainBroken, i+1, d.BaseEpoch, d.BaseSum, last.Epoch, last.Sum)
		}
		for _, s := range d.Sections {
			merged[s.ID] = s
		}
		last = d
	}
	out := &Container{Kind: KindFull, Key: base.Key, Epoch: last.Epoch, Seq: last.Seq}
	out.Sections = make([]Section, 0, len(merged))
	for _, s := range merged {
		out.Sections = append(out.Sections, s)
	}
	sort.Slice(out.Sections, func(i, j int) bool { return out.Sections[i].ID.Less(out.Sections[j].ID) })
	return EncodeContainer(out)
}

package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// secStream encodes one section body holding the given floats.
func secStream(t *testing.T, v ...float64) []byte {
	t.Helper()
	w := NewWriter()
	w.F64s(v)
	return w.Bytes()
}

func mustEncode(t *testing.T, c *Container) []byte {
	t.Helper()
	b, err := EncodeContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestContainerRoundTrip(t *testing.T) {
	c := &Container{
		Kind: KindFull, Key: "abcd1234", Epoch: 3, Seq: 2,
		Sections: []Section{
			{ID: SectionID{0, 0}, Payload: secStream(t, 1, 2)},
			{ID: SectionID{1, 0}, Payload: secStream(t, 3)},
			{ID: SectionID{5, 7}, Payload: secStream(t, 4, 5, 6)},
		},
	}
	b := mustEncode(t, c)
	d, err := DecodeContainer(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindFull || d.Key != c.Key || d.Epoch != 3 || d.Seq != 2 || d.Sum != c.Sum {
		t.Fatalf("header mismatch: %+v vs %+v", d, c)
	}
	if len(d.Sections) != 3 {
		t.Fatalf("got %d sections", len(d.Sections))
	}
	for i, s := range d.Sections {
		if s.ID != c.Sections[i].ID || !bytes.Equal(s.Payload, c.Sections[i].Payload) {
			t.Fatalf("section %d mismatch", i)
		}
		r, err := NewReader(s.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if vals := r.F64s(); len(vals) == 0 || r.Close() != nil {
			t.Fatalf("section %d body unreadable", i)
		}
	}
	// Deterministic bytes: re-encoding the decoded container is identical.
	if !bytes.Equal(mustEncode(t, d), b) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	c := &Container{
		Kind: KindFull, Key: "k0", Epoch: 1,
		Sections: []Section{
			{ID: SectionID{0, 0}, Payload: secStream(t, 1, 2)},
			{ID: SectionID{2, 0}, Payload: secStream(t, 3, 4, 5)},
		},
	}
	b := mustEncode(t, c)

	if _, err := DecodeContainer([]byte("not a container at all")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign bytes: %v", err)
	}
	for cut := 1; cut < len(b); cut += 7 {
		if _, err := DecodeContainer(b[:len(b)-cut]); err == nil {
			t.Fatalf("accepted truncation of %d bytes", cut)
		}
	}
	// A bit flip anywhere — framing, directory, or payload — must surface.
	for pos := 4; pos < len(b); pos += 5 {
		mut := append([]byte(nil), b...)
		mut[pos] ^= 0x40
		if _, err := DecodeContainer(mut); err == nil {
			t.Fatalf("accepted bit flip at offset %d", pos)
		}
	}
	// Out-of-order sections are refused at encode time.
	bad := &Container{Kind: KindFull, Key: "k0", Sections: []Section{
		{ID: SectionID{2, 0}, Payload: secStream(t, 1)},
		{ID: SectionID{0, 0}, Payload: secStream(t, 2)},
	}}
	if _, err := EncodeContainer(bad); err == nil {
		t.Fatal("encoded out-of-order sections")
	}
}

// TestMaterializeMergesChain pins the delta semantics: later links override
// earlier sections, untouched sections survive from the base, and the
// materialized bytes equal a directly-encoded full snapshot of the final
// state.
func TestMaterializeMergesChain(t *testing.T) {
	secA0, secA1 := secStream(t, 1), secStream(t, 10)
	secB0 := secStream(t, 2)
	secC1 := secStream(t, 30) // appears only in the second delta

	full := &Container{Kind: KindFull, Key: "key", Epoch: 1, Seq: 0, Sections: []Section{
		{ID: SectionID{0, 0}, Payload: secA0},
		{ID: SectionID{1, 0}, Payload: secB0},
	}}
	fb := mustEncode(t, full)

	d1 := &Container{Kind: KindDelta, Key: "key", Epoch: 2, Seq: 1,
		BaseEpoch: full.Epoch, BaseSum: full.Sum,
		Sections: []Section{{ID: SectionID{0, 0}, Payload: secA1}}}
	db1 := mustEncode(t, d1)

	d2 := &Container{Kind: KindDelta, Key: "key", Epoch: 3, Seq: 2,
		BaseEpoch: d1.Epoch, BaseSum: d1.Sum,
		Sections: []Section{{ID: SectionID{2, 1}, Payload: secC1}}}
	db2 := mustEncode(t, d2)

	got, err := Materialize(fb, db1, db2)
	if err != nil {
		t.Fatal(err)
	}
	want := mustEncode(t, &Container{Kind: KindFull, Key: "key", Epoch: 3, Seq: 2, Sections: []Section{
		{ID: SectionID{0, 0}, Payload: secA1},
		{ID: SectionID{1, 0}, Payload: secB0},
		{ID: SectionID{2, 1}, Payload: secC1},
	}})
	if !bytes.Equal(got, want) {
		t.Fatal("materialized chain differs from direct full encode")
	}
	// A single full materializes to itself.
	self, err := Materialize(fb)
	if err != nil || !bytes.Equal(self, fb) {
		t.Fatalf("identity materialize: %v", err)
	}
}

func TestMaterializeRejectsBrokenChains(t *testing.T) {
	full := &Container{Kind: KindFull, Key: "key", Epoch: 1, Sections: []Section{
		{ID: SectionID{0, 0}, Payload: secStream(t, 1)},
	}}
	fb := mustEncode(t, full)
	delta := &Container{Kind: KindDelta, Key: "key", Epoch: 2,
		BaseEpoch: full.Epoch, BaseSum: full.Sum,
		Sections: []Section{{ID: SectionID{0, 0}, Payload: secStream(t, 2)}}}
	db := mustEncode(t, delta)

	if _, err := Materialize(db); !errors.Is(err, ErrNotFull) {
		t.Fatalf("chain starting at a delta: %v", err)
	}
	if _, err := Materialize(fb, fb); err == nil {
		t.Fatal("accepted a full as a chain link")
	}
	// Skipping a link: a delta based on a different epoch/sum than the
	// preceding one must be refused.
	skip := &Container{Kind: KindDelta, Key: "key", Epoch: 5, BaseEpoch: 4, BaseSum: 0xdead,
		Sections: []Section{{ID: SectionID{0, 0}, Payload: secStream(t, 3)}}}
	sb := mustEncode(t, skip)
	if _, err := Materialize(fb, sb); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("skipped link: %v", err)
	}
	// Key mismatch.
	alien := &Container{Kind: KindDelta, Key: "other", Epoch: 2, BaseEpoch: full.Epoch, BaseSum: full.Sum,
		Sections: []Section{{ID: SectionID{0, 0}, Payload: secStream(t, 4)}}}
	ab := mustEncode(t, alien)
	if _, err := Materialize(fb, ab); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("alien key: %v", err)
	}
	// A corrupted link anywhere in the chain surfaces.
	mut := append([]byte(nil), db...)
	mut[len(mut)/2] ^= 0x01
	if _, err := Materialize(fb, mut); err == nil {
		t.Fatal("accepted corrupted delta link")
	}
}

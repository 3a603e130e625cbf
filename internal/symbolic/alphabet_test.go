package symbolic

import (
	"testing"
	"testing/quick"
)

func TestSymbolString(t *testing.T) {
	cases := []struct {
		index, level int
		want         string
	}{
		{0, 1, "0"}, {1, 1, "1"},
		{0, 2, "00"}, {1, 2, "01"}, {2, 2, "10"}, {3, 2, "11"},
		{5, 3, "101"}, {5, 5, "00101"},
		{0, 0, "ε"},
	}
	for _, c := range cases {
		if got := NewSymbol(c.index, c.level).String(); got != c.want {
			t.Errorf("NewSymbol(%d,%d) = %q, want %q", c.index, c.level, got, c.want)
		}
	}
}

func TestNewSymbolPanics(t *testing.T) {
	for _, bad := range []func(){
		func() { NewSymbol(2, 1) },
		func() { NewSymbol(-1, 1) },
		func() { NewSymbol(0, -1) },
		func() { NewSymbol(0, MaxLevel+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestCoarsenKeepsLeadingBits(t *testing.T) {
	s := NewSymbol(5, 3)
	c, err := s.Coarsen(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != "1" {
		t.Fatalf("Coarsen = %q, want \"1\"", c.String())
	}
	c2, _ := s.Coarsen(3)
	if c2 != s {
		t.Fatal("coarsen to same level should be identity")
	}
	if _, err := s.Coarsen(4); err == nil {
		t.Fatal("cannot coarsen upward")
	}
	if _, err := s.Coarsen(-1); err == nil {
		t.Fatal("negative level")
	}
}

func TestCoversPartialOrder(t *testing.T) {
	s0 := NewSymbol(0, 1)
	s01 := NewSymbol(1, 2)
	s00 := NewSymbol(0, 2)
	s1 := NewSymbol(1, 1)
	s101 := NewSymbol(5, 3)

	// The paper: "'0' being equal to '01', '00' and so on".
	if !s0.Covers(s01) || !s0.Covers(s00) {
		t.Fatal("'0' must cover '01' and '00'")
	}
	if s0.Covers(s1) || s0.Covers(s101) {
		t.Fatal("'0' must not cover '1' or '101'")
	}
	if !s1.Covers(s101) {
		t.Fatal("'1' must cover '101'")
	}
	if s01.Covers(s0) {
		t.Fatal("finer symbol cannot cover coarser")
	}
	if !s0.Covers(s0) {
		t.Fatal("Covers must be reflexive")
	}
}

func TestRefinements(t *testing.T) {
	s := NewSymbol(2, 2)
	lo, hi := s.Refinements()
	if lo.String() != "100" || hi.String() != "101" {
		t.Fatalf("Refinements = %q,%q", lo.String(), hi.String())
	}
	if !s.Covers(lo) || !s.Covers(hi) {
		t.Fatal("a symbol must cover its refinements")
	}
}

func TestAlphabet(t *testing.T) {
	a, err := NewAlphabet(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 8 || a.Level() != 3 {
		t.Fatalf("alphabet = %+v", a)
	}
	syms := a.Symbols()
	if len(syms) != 8 || syms[0].String() != "000" || syms[7].String() != "111" {
		t.Fatalf("Symbols = %v", syms)
	}
}

func TestNewAlphabetRejectsNonPowers(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5, 6, 7, 9, 100, -4} {
		if _, err := NewAlphabet(k); err == nil {
			t.Errorf("NewAlphabet(%d) should fail", k)
		}
	}
	for _, k := range []int{2, 4, 8, 16, 32, 1024} {
		if _, err := NewAlphabet(k); err != nil {
			t.Errorf("NewAlphabet(%d): %v", k, err)
		}
	}
}

// Property: Coarsen then Coarsen equals one-shot Coarsen (composition).
func TestCoarsenComposesProperty(t *testing.T) {
	f := func(idx uint32, l1, l2, l3 uint8) bool {
		a := int(l1%20) + 10 // start level 10..29
		b := int(l2) % (a + 1)
		c := int(l3) % (b + 1)
		s := Symbol{index: idx & (1<<uint(a) - 1), level: uint8(a)}
		viaB, err1 := s.Coarsen(b)
		if err1 != nil {
			return false
		}
		viaBC, err2 := viaB.Coarsen(c)
		direct, err3 := s.Coarsen(c)
		if err2 != nil || err3 != nil {
			return false
		}
		return viaBC == direct
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a coarsened symbol covers the original.
func TestCoarsenCoversProperty(t *testing.T) {
	f := func(idx uint32, l1, l2 uint8) bool {
		a := int(l1%20) + 5
		b := int(l2) % (a + 1)
		s := Symbol{index: idx & (1<<uint(a) - 1), level: uint8(a)}
		c, err := s.Coarsen(b)
		if err != nil {
			return false
		}
		return c.Covers(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

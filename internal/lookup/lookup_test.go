package lookup

import "testing"

func testTableBasics(t *testing.T, mk func() Table) {
	t.Helper()
	tbl := mk()
	if _, ok := tbl.Locate(5); ok {
		t.Error("empty table should miss")
	}
	tbl.Set(5, []int{2})
	tbl.Set(6, []int{0, 1})
	tbl.Set(7, []int{1, 1, 0}) // duplicates normalised
	if parts, ok := tbl.Locate(5); !ok || !containsAll(parts, 2) {
		t.Errorf("Locate(5) = %v %v", parts, ok)
	}
	if parts, ok := tbl.Locate(6); !ok || !containsAll(parts, 0, 1) {
		t.Errorf("Locate(6) = %v %v", parts, ok)
	}
	if parts, ok := tbl.Locate(7); !ok || !containsAll(parts, 0, 1) {
		t.Errorf("Locate(7) = %v %v", parts, ok)
	}
	// Overwrite.
	tbl.Set(5, []int{3})
	if parts, _ := tbl.Locate(5); !containsAll(parts, 3) {
		t.Errorf("overwrite failed: %v", parts)
	}
	if tbl.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

func containsAll(parts []int, want ...int) bool {
	for _, w := range want {
		found := false
		for _, p := range parts {
			if p == w {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestHashIndex(t *testing.T) {
	testTableBasics(t, func() Table { return NewHashIndex() })
	h := NewHashIndex()
	h.Set(1, []int{0})
	h.Set(2, []int{0})
	if h.Len() != 2 {
		t.Errorf("Len = %d", h.Len())
	}
	// Interning: identical sets share storage.
	if len(h.sets) != 1 {
		t.Errorf("sets interned = %d, want 1", len(h.sets))
	}
}

func TestNormalisePanicsOnBadPartition(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for partition >= 254")
		}
	}()
	NewHashIndex().Set(1, []int{300})
}

package gateway

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLedgerLineFormat pins the persisted line to its historical
// fmt rendering, "%s\t%s\t%s\t%.6f\n", byte for byte, and round-trips
// it through ReadLedger.
func TestLedgerLineFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.tsv")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	when := time.Date(2024, 2, 29, 13, 4, 5, 123456789, time.FixedZone("X", 5*3600))
	entries := []LedgerEntry{
		{when, "acme", "prov-1-00ff", -3.25},
		{when.Add(time.Second), "acme", "prov-2-0a0b", 0.0000004},
		{when.Add(-time.Nanosecond), "globex", "prov-3-cafe", 0.125},
		{when.Truncate(time.Second), "globex", "prov-4-beef", 98765432.123456789},
		{when.Add(time.Millisecond), "initech", "prov-5-f00d", math.Copysign(0, -1)},
	}
	var want string
	for _, e := range entries {
		if err := l.Append(e.When, e.Tenant, e.Session, e.Cents); err != nil {
			t.Fatal(err)
		}
		want += fmt.Sprintf("%s\t%s\t%s\t%.6f\n", e.When.UTC().Format(time.RFC3339Nano), e.Tenant, e.Session, e.Cents)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("ledger file:\n%q\nwant:\n%q", got, want)
	}
	back, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("read %d entries back, want %d", len(back), len(entries))
	}
	for i, e := range entries {
		b := back[i]
		cents := math.Round(e.Cents*1e6) / 1e6
		if !b.When.Equal(e.When) || b.Tenant != e.Tenant || b.Session != e.Session || b.Cents != cents {
			t.Errorf("entry %d read back as %+v, want %+v (amount %.6f)", i, b, e, cents)
		}
	}
}

// TestLedgerAppendAllocs keeps the per-call billing append, which runs
// on every response path, free of heap allocations.
func TestLedgerAppendAllocs(t *testing.T) {
	l, err := OpenLedger(filepath.Join(t.TempDir(), "ledger.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	when := time.Date(2024, 2, 29, 13, 4, 5, 123456789, time.UTC)
	if err := l.Append(when, "acme", "prov-1-00ff", 0.5); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(when, "acme", "prov-1-00ff", 0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.1f times per call, want 0", allocs)
	}
}

// TestLedgerAppendAfterClose: a closed file-backed ledger refuses an
// entry it can no longer persist, and neither its sums nor its count
// move. An in-memory ledger has nothing to close and keeps counting.
func TestLedgerAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.tsv")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	when := time.Date(2024, 2, 29, 13, 4, 5, 0, time.UTC)
	if err := l.Append(when, "acme", "s1", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(when, "acme", "s1", 2); err == nil {
		t.Error("Append on a closed ledger returned nil")
	}
	if sum, n := l.Sum("acme"), l.Entries(); sum != 1.5 || n != 1 {
		t.Errorf("after a refused append: sum %v, entries %d; want 1.5 and 1", sum, n)
	}
	if back, err := ReadLedger(path); err != nil || len(back) != 1 {
		t.Errorf("ledger file holds %d entries (err %v), want 1", len(back), err)
	}

	mem, err := OpenLedger("")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Append(when, "acme", "s1", 2); err != nil || mem.Sum("acme") != 2 {
		t.Errorf("in-memory ledger after Close: err %v, sum %v; want nil and 2", err, mem.Sum("acme"))
	}
}

package experiments

import (
	"strconv"
	"strings"
	"testing"

	"profirt/internal/stats"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("experiments = %d, want 13", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Anchor == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("E7"); !ok {
		t.Error("ByID(E7) not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) should not exist")
	}
}

func TestRatioCell(t *testing.T) {
	if got := ratioCell(1, 0); got != "n/a" {
		t.Errorf("ratioCell div-by-zero = %q", got)
	}
	if got := ratioCell(1, 2); got != "0.500" {
		t.Errorf("ratioCell = %q", got)
	}
}

// Run every experiment in quick mode: they must produce non-empty,
// well-formed tables without panicking, and the soundness columns must
// report zero violations for the revised/sound analyses.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	cfg := withPool(t, 0, QuickConfig())
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.NumRows() == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				if len(tb.Header) == 0 {
					t.Errorf("table %q has no header", tb.Title)
				}
				// Every row must have the header's arity.
				for i := 0; i < tb.NumRows(); i++ {
					if got := len(tb.Row(i)); got != len(tb.Header) {
						t.Errorf("table %q row %d has %d cells, want %d",
							tb.Title, i, got, len(tb.Header))
					}
				}
			}
			checkSoundness(t, e.ID, tables)
		})
	}
}

// checkSoundness inspects the violation columns of the experiments that
// assert sound bounds.
func checkSoundness(t *testing.T, id string, tables []*stats.Table) {
	column := map[string]string{
		"E1":  "violations",
		"E2":  "revised violations",
		"E5":  "violations",
		"E6":  "violations",
		"E7":  "violations",
		"E9":  "revised violations",
		"E10": "violations",
	}
	wantCol, ok := column[id]
	if !ok {
		return
	}
	tb := tables[0]
	idx := -1
	for i, h := range tb.Header {
		if h == wantCol {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("%s: column %q missing from %v", id, wantCol, tb.Header)
	}
	for i := 0; i < tb.NumRows(); i++ {
		if v := tb.Row(i)[idx]; v != "0" {
			t.Errorf("%s row %d: %s = %s, want 0 (soundness)", id, i, wantCol, v)
		}
	}
}

// The E11 headline shape: at the tightest deadline scale, DM and EDF
// must accept at least as many sets as FCFS.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := withPool(t, 0, QuickConfig())
	cfg.Trials = 10
	tables := E11PolicyComparison(cfg)
	tb := tables[0]
	last := tb.Row(tb.NumRows() - 1)
	parse := func(s string) float64 {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			t.Fatalf("cannot parse ratio %q: %v", s, err)
		}
		return f
	}
	fcfs, dm, edf := parse(last[1]), parse(last[2]), parse(last[3])
	if dm < fcfs || edf < fcfs {
		t.Errorf("headline violated at tightest scale: FCFS=%.3f DM=%.3f EDF=%.3f", fcfs, dm, edf)
	}
}

package main

import (
	"testing"

	"diffindex/internal/cluster"
	"diffindex/internal/core"
	"diffindex/internal/kv"
)

// TestCheckerSeesBrokenIndex is the negative control of the post-run check:
// each workload runs at a tiny size and must verify clean; then one stale
// and one missing title-index entry are planted with raw index-table writes,
// and the check must report exactly those two failures.
func TestCheckerSeesBrokenIndex(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tiny := *w
			tiny.rows = 400
			const seed, warm, timed = 7, 2, 40
			capacity := tiny.rows + clients*(warm+timed)*len(tiny.round)
			e, err := setup(&tiny, seed, capacity, false)
			if err != nil {
				t.Fatal(err)
			}
			defer e.db.Close()
			p, err := measure(e, seed, warm, timed, false)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 || p.ops != clients*timed*len(tiny.round) {
				t.Fatalf("clean run: %d failed of %d timed operations", p.failed, p.ops)
			}

			live := e.m.live()
			stale, missing := live[0], live[1]
			c, _ := e.db.Internal()
			raw := cluster.NewClient(c, "plant")
			name := core.IndexDef{Table: tableName, Columns: titleIndex}.Name()
			// A stale entry: row `stale` also indexed under a title it never had.
			key := kv.IndexKey([]byte("planted-title"), rowKey(stale))
			if err := raw.RawApply(name, key, []kv.Cell{{Key: key, Ts: kv.MaxTimestamp - 1, Kind: kv.KindPut}}); err != nil {
				t.Fatal(err)
			}
			// A missing entry: row `missing` loses the entry of its current title.
			key = kv.IndexKey(e.m.titleOf(missing, e.m.current(missing)), rowKey(missing))
			if err := raw.RawApply(name, key, []kv.Cell{{Key: key, Ts: kv.MaxTimestamp - 1, Kind: kv.KindDelete}}); err != nil {
				t.Fatal(err)
			}

			v, err := verify(e.db, e.m)
			if err != nil {
				t.Fatal(err)
			}
			if v.Failed != 2 {
				t.Fatalf("post-run check found %d failures, want exactly the 2 planted: %v", v.Failed, v.Problems)
			}
			t.Logf("%d facts checked; found %v", v.Checked, v.Problems)
		})
	}
}

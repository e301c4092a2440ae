package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"diffindex"
	"diffindex/internal/cluster"
	"diffindex/internal/core"
	"diffindex/internal/kv"
)

const (
	tableName   = "item"
	titleColumn = "title"
	priceColumn = "price"
	dataColumn  = "data"
)

var (
	titleIndex = []string{titleColumn}
	priceIndex = []string{priceColumn}
)

// mix is the splitmix64 finalizer: a bijection on uint64 that scatters
// nearby inputs, used for every derived value the benchmark generates.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowKey spreads row ids over the key space with a 4-hex-digit hash prefix,
// so rows inserted during a run land in every region, not only the last.
func rowKey(row int) []byte {
	return []byte(fmt.Sprintf("%04x%08d", uint16(mix(uint64(row))), row))
}

// priceOf is a row's fixed price: a bijection of the row id onto uint32,
// encoded order-preserving, so every price is unique and ranges over it cut
// across rows in every region.
func priceOf(row int) []byte {
	return diffindex.EncodeUint64(uint64(uint32(row) * 2654435761))
}

// rowState is the model of one row: the newest acknowledged title version
// with its timestamp, and the last version number handed out.
type rowState struct {
	issued atomic.Int32
	mu     sync.Mutex
	ver    int32 // 0: the row was never acknowledged
	ts     int64
}

// model is the benchmark's own record of what the store must hold: for each
// row the last acknowledged title (titles are a pure function of seed, row
// and version) and the row's fixed price. It is kept apart from the program
// and is the only reference the checks compare against.
type model struct {
	seed uint64
	rows []rowState
	next atomic.Int64 // next row id for inserts
}

func newModel(seed uint64, capacity int) *model {
	return &model{seed: seed, rows: make([]rowState, capacity)}
}

// titleOf is the title a row carries at a version. The hash prefix places
// titles uniformly over the index key space; the suffix makes each unique.
func (m *model) titleOf(row int, ver int32) []byte {
	h := uint32(mix(m.seed ^ uint64(row)<<24 ^ uint64(ver)))
	return []byte(fmt.Sprintf("%08x-r%d-v%d", h, row, ver))
}

// nextVersion hands out a fresh title version for row.
func (m *model) nextVersion(row int) int32 { return m.rows[row].issued.Add(1) }

// ack records an acknowledged write of version ver at timestamp ts. With
// several writers on one row the newest timestamp wins, as in the store.
func (m *model) ack(row int, ver int32, ts int64) {
	r := &m.rows[row]
	r.mu.Lock()
	if ts > r.ts {
		r.ver, r.ts = ver, ts
	}
	r.mu.Unlock()
}

// current returns the row's newest acknowledged version (0 if none).
func (m *model) current(row int) int32 {
	r := &m.rows[row]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ver
}

// live returns the ids of every acknowledged row.
func (m *model) live() []int {
	var out []int
	for i := range m.rows {
		if m.current(i) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// quiesce brings every index to the state DESIGN.md §9 promises once writes
// stop: sync-full needs nothing, sync-insert a Cleanse, the async schemes
// a drained update queue.
func quiesce(db *diffindex.DB, scheme diffindex.Scheme) error {
	switch scheme {
	case diffindex.SyncInsert:
		cl := db.NewClient("perfbench-cleanse")
		for _, cols := range [][]string{titleIndex, priceIndex} {
			if _, _, err := cl.Cleanse(tableName, cols...); err != nil {
				return fmt.Errorf("cleanse %v: %w", cols, err)
			}
		}
	case diffindex.AsyncSimple, diffindex.AsyncSession:
		if !db.WaitForIndexes(2 * time.Minute) {
			return fmt.Errorf("async indexes did not converge")
		}
	}
	return nil
}

// verification is the outcome of the post-run check. Checked counts the
// facts compared, Failed the facts that disagree with the model; Problems
// describes the first few.
type verification struct {
	Checked, Failed int
	Problems        []string
}

func (v *verification) fail(format string, args ...any) {
	v.Failed++
	if len(v.Problems) < 8 {
		v.Problems = append(v.Problems, fmt.Sprintf(format, args...))
	}
}

// verify compares a quiesced store with the model: every live row must read
// back its last acknowledged title and its price, no other row may exist,
// and each index must hold exactly one entry per row — the row's current
// value — and no entry for any other row. A (row, index) pair counts as one
// fact, so one stale and one missing entry on different rows are two
// failures.
func verify(db *diffindex.DB, m *model) (verification, error) {
	var v verification
	rows, err := db.NewClient("perfbench-verify").Scan(tableName, nil, nil, 0)
	if err != nil {
		return v, fmt.Errorf("verify: scan: %w", err)
	}
	live := m.live()
	byKey := make(map[string]diffindex.Row, len(rows))
	for _, r := range rows {
		byKey[string(r.Key)] = r
	}
	want := make(map[string]map[string][]byte, len(live)) // row key → column → value
	for _, row := range live {
		key := string(rowKey(row))
		want[key] = map[string][]byte{
			titleColumn: m.titleOf(row, m.current(row)),
			priceColumn: priceOf(row),
		}
		v.Checked++
		got, ok := byKey[key]
		switch {
		case !ok:
			v.fail("row %s is missing", key)
		case !bytes.Equal(got.Cols[titleColumn], want[key][titleColumn]):
			v.fail("row %s has title %q, want %q", key, got.Cols[titleColumn], want[key][titleColumn])
		case !bytes.Equal(got.Cols[priceColumn], want[key][priceColumn]):
			v.fail("row %s has price %x, want %x", key, got.Cols[priceColumn], want[key][priceColumn])
		}
	}
	for key := range byKey {
		if _, ok := want[key]; !ok {
			v.Checked++
			v.fail("row %s exists but was never written", key)
		}
	}

	c, _ := db.Internal()
	raw := cluster.NewClient(c, "perfbench-verify-raw")
	for _, col := range []string{titleColumn, priceColumn} {
		name := core.IndexDef{Table: tableName, Columns: []string{col}}.Name()
		cells, err := raw.RawScan(name, nil, nil, kv.MaxTimestamp, 0)
		if err != nil {
			return v, fmt.Errorf("verify: scan %s: %w", name, err)
		}
		entries := make(map[string][][]byte) // row key → indexed values
		for _, cell := range cells {
			val, row, err := kv.SplitIndexKey(cell.Key)
			if err != nil {
				v.Checked++
				v.fail("%s: malformed index key %q", name, cell.Key)
				continue
			}
			entries[string(row)] = append(entries[string(row)], val)
		}
		for key, cols := range want {
			v.Checked++
			got := entries[key]
			if len(got) != 1 || !bytes.Equal(got[0], cols[col]) {
				v.fail("%s: row %s has entries %q, want exactly %q", name, key, got, cols[col])
			}
		}
		for key, got := range entries {
			if _, ok := want[key]; !ok {
				v.Checked++
				v.fail("%s: entries %q point at row %s, which was never written", name, got, key)
			}
		}
	}
	return v, nil
}

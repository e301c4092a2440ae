package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diffindex"
	"diffindex/internal/vfs"
)

// opKind is one kind of client operation.
type opKind int

const (
	opUpdate opKind = iota // Client.Put of a new title on an existing row
	opInsert               // Client.Put of a fresh row (title, price, payload)
	opGet                  // GetByIndex of a row's current title: exactly that row
	opRows                 // RowsByIndex of a row's current title: exactly that row's columns
	opGetOld               // GetByIndex of a superseded title: no row
	opRange                // RangeByIndex over a price range: exactly the known rows
	numOpKinds
)

var opNames = [numOpKinds]string{"put", "insert", "get", "rows", "get_old", "range"}

// clients is the number of closed-loop client goroutines: one per CPU of
// the reference host. Each owns a disjoint share of the rows.
const clients = 2

// workload is one benchmark configuration. Sizes are fixed per workload;
// the --seconds flag only scales the number of operations.
type workload struct {
	name   string
	scheme diffindex.Scheme
	// rows is the number of rows loaded during set-up; payload the bytes
	// of filler each carries beside its title and price.
	rows, payload int
	// superseded is the share of loaded rows retitled once during set-up,
	// so their first titles are stale index entries the run can look up.
	superseded float64
	// memtableBytes and cacheBytes are Options.MemtableBytes and
	// Options.BlockCacheBytes.
	memtableBytes, cacheBytes int64
	// rate is the nominal operations per second: a run of s seconds does
	// s·rate operations, which take about s seconds on the reference host.
	rate int
	// round is the fixed sequence of operations each client repeats, so
	// every run is made of whole rounds of the same mix.
	round []opKind
	// zipf draws updated rows scrambled-zipfian (θ 0.99) instead of
	// uniformly.
	zipf bool
}

// warmup is the share of each repetition's work run untimed before the
// measured phase.
const warmup = 0.05

var workloads = []*workload{
	{
		name: "update-zipf", scheme: diffindex.SyncFull,
		rows: 20000, payload: 100,
		memtableBytes: 4 << 20, cacheBytes: 32 << 20,
		rate: 15000, round: []opKind{opUpdate}, zipf: true,
	},
	{
		name: "read-index", scheme: diffindex.SyncInsert,
		rows: 40000, payload: 200, superseded: 0.25,
		memtableBytes: 4 << 20, cacheBytes: 1 << 20,
		rate: 25000,
		round: []opKind{
			opGet, opGet, opGet, opRows, opGetOld, opGet, opGet, opRange, opGet, opUpdate,
			opGet, opGet, opGet, opRows, opGetOld, opGet, opGet, opRange, opGet, opUpdate,
		},
	},
	{
		name: "ingest-async", scheme: diffindex.AsyncSimple,
		rows: 10000, payload: 500,
		memtableBytes: 1 << 20, cacheBytes: 32 << 20,
		rate: 35000, round: []opKind{opInsert, opUpdate},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rangeWidth is the number of rows every price-range lookup returns.
const rangeWidth = 16

// regions is the number of regions each table and index is pre-split into.
const regions = 6

// env is one opened, loaded store with its model.
type env struct {
	w     *workload
	db    *diffindex.DB
	m     *model
	fs    *countingFS // nil when not counting
	pay   []byte      // payload source: random bytes from the seed
	price []pricePair // loaded rows sorted by price, for range answers
	// userBytes counts the bytes of keys and values the clients put.
	userBytes atomic.Int64
}

type pricePair struct {
	price []byte
	row   int
}

func hexSplits(n int) [][]byte {
	var out [][]byte
	for i := 1; i < n; i++ {
		out = append(out, []byte(fmt.Sprintf("%04x", i*0x10000/n)))
	}
	return out
}

func priceSplits(n int) [][]byte {
	var out [][]byte
	for i := 1; i < n; i++ {
		out = append(out, diffindex.EncodeUint64(uint64(i)*(1<<32)/uint64(n)))
	}
	return out
}

// setup opens a store, creates the table and its two indexes, loads the
// rows, retitles the superseded share, brings the indexes to their
// quiescent state and flushes every region. capacity bounds the row ids
// the run may insert.
func setup(w *workload, seed uint64, capacity int, traced bool) (*env, error) {
	opts := diffindex.Options{
		Servers:         3,
		MemtableBytes:   w.memtableBytes,
		BlockCacheBytes: w.cacheBytes,
		DisableScrub:    true,
		DisableTracing:  !traced,
	}
	e := &env{w: w, m: newModel(seed, capacity)}
	if traced {
		e.fs = newCountingFS(vfs.NewMemFS())
		opts.BaseFS = e.fs
	}
	e.db = diffindex.Open(opts)
	if err := e.db.CreateTable(tableName, hexSplits(regions)); err != nil {
		e.db.Close()
		return nil, fmt.Errorf("create table: %w", err)
	}
	for _, idx := range []struct {
		cols   []string
		splits [][]byte
	}{{titleIndex, hexSplits(regions)}, {priceIndex, priceSplits(regions)}} {
		if err := e.db.CreateIndex(tableName, idx.cols, w.scheme, idx.splits); err != nil {
			e.db.Close()
			return nil, fmt.Errorf("create index %v: %w", idx.cols, err)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	e.pay = make([]byte, 64<<10)
	rng.Read(e.pay)

	e.m.next.Store(int64(w.rows))
	err := parallel(func(c int) error {
		cl := e.db.NewClient(fmt.Sprintf("loader-%d", c))
		for row := c; row < w.rows; row += clients {
			if _, err := e.insert(cl, row); err != nil {
				return err
			}
		}
		if w.superseded > 0 {
			every := int(math.Round(1 / w.superseded))
			for row := c; row < w.rows; row += clients * every {
				if _, err := e.update(cl, row); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil {
		err = quiesce(e.db, w.scheme)
	}
	if err == nil {
		err = e.db.FlushAll()
	}
	if err != nil {
		e.db.Close()
		return nil, fmt.Errorf("load %s: %w", w.name, err)
	}
	e.price = make([]pricePair, w.rows)
	for row := range e.price {
		e.price[row] = pricePair{priceOf(row), row}
	}
	sort.Slice(e.price, func(i, j int) bool { return bytes.Compare(e.price[i].price, e.price[j].price) < 0 })
	return e, nil
}

// parallel runs fn once per client and waits for every call to return.
func parallel(fn func(c int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *env) addUserBytes(key []byte, cols diffindex.Cols) {
	n := len(key)
	for c, v := range cols {
		n += len(c) + len(v)
	}
	e.userBytes.Add(int64(n))
}

// insert writes a fresh row with title version 1, its price and payload,
// and returns how long the Put took.
func (e *env) insert(cl *diffindex.Client, row int) (time.Duration, error) {
	return e.put(cl, row, func(title []byte) diffindex.Cols {
		return diffindex.Cols{titleColumn: title, priceColumn: priceOf(row), dataColumn: e.payloadOf(row)}
	})
}

// payloadOf is a row's filler: a slice of the seeded random bytes.
func (e *env) payloadOf(row int) []byte {
	off := int(mix(uint64(row)) % uint64(len(e.pay)-e.w.payload))
	return e.pay[off : off+e.w.payload]
}

// update gives an existing row a new title and returns how long the Put
// took.
func (e *env) update(cl *diffindex.Client, row int) (time.Duration, error) {
	return e.put(cl, row, func(title []byte) diffindex.Cols { return diffindex.Cols{titleColumn: title} })
}

// put writes the row's next title version with the columns cols builds
// around it, and records the acknowledged write in the model.
func (e *env) put(cl *diffindex.Client, row int, cols func(title []byte) diffindex.Cols) (time.Duration, error) {
	ver := e.m.nextVersion(row)
	key := rowKey(row)
	c := cols(e.m.titleOf(row, ver))
	start := time.Now()
	ts, err := cl.Put(tableName, key, c)
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("put row %d: %w", row, err)
	}
	e.m.ack(row, ver, ts)
	e.addUserBytes(key, c)
	return d, nil
}

// client is one closed-loop client: its own seeded generator and the rows
// it owns.
type client struct {
	e    *env
	cl   *diffindex.Client
	rng  *rand.Rand
	zipf *zipfian
	// own lists the client's rows; retitled those of them with a
	// superseded title.
	own, retitled []int
	isRetitled    map[int]bool
	lat           [numOpKinds][]int64 // latency samples, ns
	failed        int                 // operations that returned an error or a wrong result
	wrong         int                 // operations whose result disagreed with the model
	problems      []string
}

func newClient(e *env, id int, seed uint64) *client {
	c := &client{
		e:          e,
		cl:         e.db.NewClient(fmt.Sprintf("client-%d", id)),
		rng:        rand.New(rand.NewSource(int64(mix(seed ^ uint64(id+1)<<40)))),
		isRetitled: make(map[int]bool),
	}
	for row := 0; row < e.w.rows; row++ {
		// One writer per row: with two, stale index entries survive (see
		// README.md, "A fault the workloads avoid").
		if row%clients == id {
			c.own = append(c.own, row)
			if e.m.current(row) > 1 {
				c.retitled = append(c.retitled, row)
				c.isRetitled[row] = true
			}
		}
	}
	if e.w.zipf {
		c.zipf = newZipfian(len(c.own), 0.99)
	}
	return c
}

// fail counts a failed operation; wrong marks a result that disagreed with
// the model, as opposed to an error the program reported.
func (c *client) fail(wrong bool, format string, args ...any) {
	c.failed++
	if wrong {
		c.wrong++
	}
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// pick draws the row for an update or a lookup.
func (c *client) pick() int {
	if c.zipf != nil {
		rank := c.zipf.next(c.rng)
		return c.own[mix(uint64(rank))%uint64(len(c.own))]
	}
	return c.own[c.rng.Intn(len(c.own))]
}

// do runs one operation, times its call into the store and checks its
// result against the model.
func (c *client) do(kind opKind, record bool) {
	e := c.e
	var d time.Duration
	var err error
	lookup := func(f func() ([]diffindex.IndexHit, error)) []diffindex.IndexHit {
		start := time.Now()
		var hits []diffindex.IndexHit
		hits, err = f()
		d = time.Since(start)
		return hits
	}
	switch kind {
	case opUpdate:
		row := c.pick()
		if d, err = e.update(c.cl, row); err == nil && !c.isRetitled[row] {
			c.isRetitled[row] = true
			c.retitled = append(c.retitled, row)
		}
	case opInsert:
		row := int(e.m.next.Add(1) - 1)
		if d, err = e.insert(c.cl, row); err == nil {
			c.own = append(c.own, row)
		}
	case opGet:
		row := c.pick()
		title, key := e.m.titleOf(row, e.m.current(row)), rowKey(row)
		hits := lookup(func() ([]diffindex.IndexHit, error) { return c.cl.GetByIndex(tableName, titleIndex, title) })
		if err == nil && (len(hits) != 1 || !bytes.Equal(hits[0].Row, key)) {
			c.fail(true, "get %q: %d hits, want row %s", title, len(hits), key)
		}
	case opRows:
		row := c.pick()
		title, key := e.m.titleOf(row, e.m.current(row)), rowKey(row)
		start := time.Now()
		var rows []diffindex.Row
		rows, err = c.cl.RowsByIndex(tableName, titleIndex, title)
		d = time.Since(start)
		if err == nil && (len(rows) != 1 || !bytes.Equal(rows[0].Key, key) ||
			!bytes.Equal(rows[0].Cols[titleColumn], title) || !bytes.Equal(rows[0].Cols[priceColumn], priceOf(row)) ||
			!bytes.Equal(rows[0].Cols[dataColumn], e.payloadOf(row))) {
			c.fail(true, "rows %q: %d rows, want row %s with its title, price and payload", title, len(rows), key)
		}
	case opGetOld:
		row := c.retitled[c.rng.Intn(len(c.retitled))]
		title := e.m.titleOf(row, int32(1+c.rng.Intn(int(e.m.current(row))-1)))
		hits := lookup(func() ([]diffindex.IndexHit, error) { return c.cl.GetByIndex(tableName, titleIndex, title) })
		if err == nil && len(hits) != 0 {
			c.fail(true, "get superseded %q: %d hits, want none", title, len(hits))
		}
	case opRange:
		lo := c.rng.Intn(len(e.price) - rangeWidth + 1)
		want := e.price[lo : lo+rangeWidth]
		low, high := want[0].price, want[rangeWidth-1].price
		hits := lookup(func() ([]diffindex.IndexHit, error) {
			return c.cl.RangeByIndex(tableName, priceIndex, low, high, 0)
		})
		if err == nil && !sameRows(hits, want) {
			c.fail(true, "range %x..%x: %d hits, want the %d known rows", low, high, len(hits), rangeWidth)
		}
	}
	if err != nil {
		c.fail(false, "%s: %v", opNames[kind], err)
		return
	}
	if record {
		c.lat[kind] = append(c.lat[kind], int64(d))
	}
}

func sameRows(hits []diffindex.IndexHit, want []pricePair) bool {
	if len(hits) != len(want) {
		return false
	}
	got := make(map[string]bool, len(hits))
	for _, h := range hits {
		got[string(h.Row)] = true
	}
	for _, p := range want {
		if !got[string(rowKey(p.row))] {
			return false
		}
	}
	return true
}

// zipfian draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^θ, by the method
// of Gray et al. ("Quickly generating billion-record synthetic databases"),
// as YCSB does.
type zipfian struct {
	n                   int
	theta, alpha, eta   float64
	zetan, halfPowTheta float64
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfian{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfian) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.halfPowTheta:
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

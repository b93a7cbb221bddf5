package loadgen

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
)

// nodeStream renders node i's records and accounting windows as bytes:
// JSON floats round-trip exactly, so equal bytes are equal draws.
func nodeStream(t *testing.T, g *Generator, i int) []byte {
	t.Helper()
	acct, err := g.AcctRecords(i)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(struct {
		Records []eard.JobRecord
		Acct    []accounting.Record
	}{g.Records(i), acct})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestGeneratorStream holds the generator to its contract: a node's
// traffic is a pure function of (Seed, node index) — the same bytes in
// node order, in reverse and from four goroutines at once — every
// record keeps its shape, each accounting window conserves its energy,
// and a digest of the stream at fixed seeds and nodes makes the next
// change to the drawn values a visible diff.
func TestGeneratorStream(t *testing.T) {
	const nodes = 12
	g, err := New(Config{Nodes: nodes, RecordsPerNode: 10, AcctPerNode: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, nodes)
	for i := range want {
		want[i] = nodeStream(t, g, i)
	}
	for i := nodes - 1; i >= 0; i-- {
		if got := nodeStream(t, g, i); string(got) != string(want[i]) {
			t.Fatalf("node %d: reverse order gives other bytes", i)
		}
	}
	got := make([][]byte, nodes)
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < nodes; i += 4 {
				got[i] = nodeStream(t, g, i)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("node %d: concurrent generation gives other bytes", i)
		}
	}

	for i := 0; i < nodes; i++ {
		node := NodeName(i)
		for j, r := range g.Records(i) {
			if r.JobID != "job"+strconv.Itoa(j%3) || r.StepID != strconv.Itoa(j/3) || r.Node != node {
				t.Fatalf("node %d record %d: ids %s/%s on %s", i, j, r.JobID, r.StepID, r.Node)
			}
			if r.AvgPower < 250 || r.AvgPower >= 290 || r.EnergyJ != r.AvgPower*120 {
				t.Fatalf("node %d record %d: power %v W, energy %v J", i, j, r.AvgPower, r.EnergyJ)
			}
		}
		acct, err := g.AcctRecords(i)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 8; w++ {
			n := 1 + (i+w)%3
			if len(acct) < n {
				t.Fatalf("node %d window %d: %d records left, want %d", i, w, len(acct), n)
			}
			var pkg, dram, nodeJ float64
			for k, r := range acct[:n] {
				if r.JobID != "job"+strconv.Itoa((w+k)%3) || r.StepID != strconv.Itoa(k) ||
					r.User != acctUsers[k] || r.Node != node || r.Phase != w {
					t.Fatalf("node %d window %d tenant %d: %+v", i, w, k, r)
				}
				pkg, dram, nodeJ = pkg+r.PkgJ, dram+r.DramJ, nodeJ+r.NodeJ
			}
			// The node meter reads the package and DRAM energy plus 45 W
			// of board power over the 120 s window; every domain's split
			// re-adds to its window total.
			if want := pkg + dram + 45*120; math.Abs(nodeJ-want) > 1e-9*want {
				t.Fatalf("node %d window %d: node energy %v J, want %v J", i, w, nodeJ, want)
			}
			acct = acct[n:]
		}
		if len(acct) != 0 {
			t.Fatalf("node %d: %d records past the last window", i, len(acct))
		}
	}

	h := fnv.New64a()
	for _, seed := range []int64{1, 7} {
		g, err := New(Config{Nodes: 1000, AcctPerNode: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 1, 999} {
			h.Write(nodeStream(t, g, i))
		}
	}
	if got, want := h.Sum64(), uint64(0xf48805bbecb9ff5c); got != want {
		t.Errorf("stream digest %#016x, want %#016x", got, want)
	}
}

// TestNodeNameMatchesFormat: NodeName is the "node%05d" it always was,
// built without fmt.
func TestNodeNameMatchesFormat(t *testing.T) {
	for _, i := range []int{0, 7, 42, 999, 12345, 99999, 100000, 1234567, -1, -42, -12345, math.MaxInt, math.MinInt} {
		if got, want := NodeName(i), fmt.Sprintf("node%05d", i); got != want {
			t.Errorf("NodeName(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestGeneratorAllocations pins what a node's traffic costs to build:
// its slice and the node's name, for Records at 10 records (13
// allocations when each node seeded a math/rand source and formatted
// its ids) and for AcctRecords at 8 windows (94).
func TestGeneratorAllocations(t *testing.T) {
	g, err := New(Config{Nodes: 10, RecordsPerNode: 10, AcctPerNode: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { _ = g.Records(3) }); n != 2 {
		t.Errorf("Records at 10 records: %v allocations, want 2", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := g.AcctRecords(3); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("AcctRecords at 8 windows: %v allocations, want 2", n)
	}
}

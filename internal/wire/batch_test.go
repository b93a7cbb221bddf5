package wire

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
)

// oracleAppendBatch is the whole-batch encoder BatchBuilder replaced,
// kept as the oracle the builder's images are held to.
func oracleAppendBatch(dst []byte, b Batch) []byte {
	e := encoder{buf: slices.Grow(dst, recordsSizeHint(len(b.Records), len(b.Acct)))}
	e.str(b.ID)
	e.str(b.Node)
	e.records(b.Records)
	e.acctRecords(b.Acct)
	return e.buf
}

func (e *encoder) records(recs []eard.JobRecord) {
	e.uint(uint64(len(recs)))
	for i := range recs {
		e.record(&recs[i])
	}
}

// names reports whether any string of b's records and windows is s.
func names(b Batch, s string) bool {
	for _, r := range b.Records {
		if slices.Contains([]string{r.JobID, r.StepID, r.Node, r.App, r.Policy}, s) {
			return true
		}
	}
	for _, r := range b.Acct {
		if slices.Contains([]string{r.JobID, r.StepID, r.User, r.Node, r.Policy}, s) {
			return true
		}
	}
	return false
}

// spilled is an image a builder let go of, and a copy of it as it was.
type spilled struct{ image, was []byte }

// checkImage holds img, a builder's image of want, to the oracle: the
// same bytes unless a string of the batch is its own ID, and always
// the same batch decoded.
func checkImage(t *testing.T, img []byte, want Batch) {
	t.Helper()
	if len(img) < HeaderRoom {
		t.Fatalf("batch %s: a %d-byte image has no header room", want.ID, len(img))
	}
	body := img[HeaderRoom:]
	if !names(want, want.ID) {
		if oracle := oracleAppendBatch(nil, want); !bytes.Equal(body, oracle) {
			t.Fatalf("batch %s (%d records, %d windows):\n got %x\nwant %x", want.ID, len(want.Records), len(want.Acct), body, oracle)
		}
	}
	got, err := Frame{Type: TypeBatch, Payload: body}.AsBatch()
	if err != nil || !sameBits(got, want) {
		t.Fatalf("batch %s decodes to %+v (err %v), want %+v", want.ID, got, err, want)
	}
}

// TestBatchBuilderMatchesOracle: a builder fed seeded records and
// windows in enqueue order, with flushes that fail and are retried
// under a fresh ID while records keep arriving, images every flush as
// the whole-batch encoder does the pending batch — over 0–70 distinct
// strings, so the table crosses linearTable both ways, and with now and
// then an ID longer than the head room or named by a record. A spilled
// image keeps its bytes whatever the builder does next.
func TestBatchBuilderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const node = "node00042"
	seq := 0
	for trial := 0; trial < 300; trial++ {
		pool := make([]string, rng.Intn(71))
		for i := range pool {
			switch {
			case i%11 == 10:
				// The ID of a flush to come.
				pool[i] = node + "/" + strconv.Itoa(seq+1+rng.Intn(3))
			case i%13 == 12:
				pool[i] = strings.Repeat("x", 60+i)
			default:
				pool[i] = "s" + strconv.Itoa(trial) + "-" + strconv.Itoa(i)
			}
		}
		str := func() string {
			switch i := rng.Intn(len(pool) + 2); i {
			case 0:
				return ""
			case 1:
				return node
			default:
				return pool[i-2]
			}
		}
		f := func() float64 { return oddFloats[rng.Intn(len(oddFloats))] }
		b := NewBatchBuilder(node, 1+rng.Intn(64))
		want := Batch{Node: node}
		var spills []spilled
		for step := rng.Intn(150); step >= 0; step-- {
			switch op := rng.Intn(20); {
			case op < 12:
				r := eard.JobRecord{JobID: str(), StepID: str(), Node: str(), App: str(), Policy: str(),
					TimeSec: f(), EnergyJ: f(), AvgPower: f(), AvgCPU: f(), AvgIMC: f(), AvgCPI: f(), AvgGBs: f()}
				b.Add(&r)
				want.Records = append(want.Records, r)
			case op < 17:
				want.Acct = append(want.Acct, accounting.Record{V: rng.Intn(3), JobID: str(), StepID: str(), User: str(), Node: str(), Policy: str(),
					Phase: rng.Intn(1 << 10), StartSec: f(), EndSec: f(), PkgJ: f(), DramJ: f(), UncoreJ: f(), NodeJ: f(), AvgCPUGHz: f(), AvgIMCGHz: f()})
			default:
				seq++
				want.ID = node + "/" + strconv.Itoa(seq)
				if rng.Intn(10) == 0 {
					want.ID += "/" + strings.Repeat("9", rng.Intn(200))
				}
				img := b.Image(want.ID, want.Acct)
				checkImage(t, img, want)
				if b.Len() != len(want.Records) {
					t.Fatalf("builder holds %d records, want %d", b.Len(), len(want.Records))
				}
				switch rng.Intn(3) {
				case 0: // the flush failed: the batch stays pending
					continue
				case 1: // delivered
					b.Reset()
				case 2: // spilled: the image is the journal's
					spills = append(spills, spilled{img, bytes.Clone(img)})
					b.Detach()
				}
				want = Batch{Node: node}
			}
		}
		for _, s := range spills {
			if !bytes.Equal(s.image, s.was) {
				t.Fatalf("trial %d: a spilled image changed after the builder moved on", trial)
			}
		}
	}

	// Record counts either side of a count's second byte.
	b := NewBatchBuilder(node, 4)
	want := Batch{Node: node}
	for n := 1; n <= 129; n++ {
		r := eard.JobRecord{JobID: "j" + strconv.Itoa(n%3), Node: node, TimeSec: float64(n)}
		b.Add(&r)
		want.Records = append(want.Records, r)
		if n >= 126 {
			seq++
			want.ID = node + "/" + strconv.Itoa(seq)
			checkImage(t, b.Image(want.ID, want.Acct), want)
		}
	}
}

// TestEncodeBatchMatchesOracle: a batch encoded whole — EncodeBatch,
// BatchImage, appendBatch behind bytes already there — is the oracle's
// bytes, awkward IDs and nodes (empty, equal, named by records)
// included.
func TestEncodeBatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for round := 0; round < 300; round++ {
		s := func() string { return oddStrings[rng.Intn(len(oddStrings))] }
		b := Batch{ID: s(), Node: s()}
		for i := rng.Intn(70); i > 0; i-- {
			b.Records = append(b.Records, oddRecord(rng))
		}
		for i := rng.Intn(20); i > 0; i-- {
			b.Acct = append(b.Acct, oddAcct(rng))
		}
		oracle := oracleAppendBatch(nil, b)
		f, _ := EncodeBatch(b)
		if !bytes.Equal(f.Payload, oracle) {
			t.Fatalf("round %d: EncodeBatch\n got %x\nwant %x", round, f.Payload, oracle)
		}
		if img := BatchImage(nil, b); !bytes.Equal(img[HeaderRoom:], oracle) {
			t.Fatalf("round %d: BatchImage\n got %x\nwant %x", round, img[HeaderRoom:], oracle)
		}
		if got := appendBatch([]byte("abc"), b); string(got[:3]) != "abc" || !bytes.Equal(got[3:], oracle) {
			t.Fatalf("round %d: appendBatch behind 3 bytes\n got %x\nwant abc then %x", round, got, oracle)
		}
	}
}

// fuzzString is string i of a 64-string pool a fuzzed batch names: the
// empty string, its node, the IDs of its first flushes, and the rest,
// past linearTable between them.
func fuzzString(i int) string {
	switch i %= 64; {
	case i == 0:
		return ""
	case i == 1:
		return "n7"
	case i < 6:
		return "n7/" + strconv.Itoa(i-1)
	default:
		return "s" + strconv.Itoa(i)
	}
}

// FuzzBatchBuilder drives a builder with fuzzed sequences of adds and
// flushes — a flush that fails and leaves its batch pending, one that
// delivers it, one that spills it — and holds every image to what was
// enqueued: it decodes to exactly the records and windows since the
// last delivered or spilled flush, in order, under the ID of this
// flush, and a spilled image never changes afterwards.
func FuzzBatchBuilder(f *testing.F) {
	f.Add([]byte{0, 4, 8, 1, 2, 12, 5, 2, 0x3f, 3, 9, 7})
	f.Add([]byte{1, 1, 2, 0, 2, 0, 0xfc, 3})
	seed := make([]byte, 0, 80)
	for i := 0; i < 70; i++ {
		seed = append(seed, byte(i<<2)|byte(i%2))
	}
	f.Add(append(seed, 2, 0, 6, 3))
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every flush decodes its whole pending batch: a longer run of
		// failed flushes is quadratic without finding more.
		ops = ops[:min(len(ops), 300)]
		b := NewBatchBuilder("n7", 4)
		want := Batch{Node: "n7"}
		var spills []spilled
		seq := 0
		for _, op := range ops {
			arg := int(op >> 2)
			switch op & 3 {
			case 0:
				r := eard.JobRecord{JobID: fuzzString(arg), StepID: fuzzString(arg * 3), Node: fuzzString(arg * 5),
					App: fuzzString(arg + 1), Policy: fuzzString(arg * 7), TimeSec: float64(arg), EnergyJ: float64(len(ops))}
				b.Add(&r)
				want.Records = append(want.Records, r)
			case 1:
				want.Acct = append(want.Acct, accounting.Record{V: 1, JobID: fuzzString(arg), StepID: fuzzString(arg * 3),
					User: fuzzString(arg + 2), Node: fuzzString(arg * 5), Policy: fuzzString(arg * 7), Phase: arg, NodeJ: float64(seq)})
			default:
				seq++
				want.ID = "n7/" + strconv.Itoa(seq)
				img := b.Image(want.ID, want.Acct)
				got, err := Frame{Type: TypeBatch, Payload: img[HeaderRoom:]}.AsBatch()
				if err != nil || !sameBits(got, want) {
					t.Fatalf("flush %d decodes to %+v (err %v), want %+v", seq, got, err, want)
				}
				if op&3 == 2 {
					continue // failed: pending still
				}
				if arg&1 == 1 {
					spills = append(spills, spilled{img, bytes.Clone(img)})
					b.Detach()
				} else {
					b.Reset()
				}
				want = Batch{Node: "n7"}
			}
		}
		for _, s := range spills {
			if !bytes.Equal(s.image, s.was) {
				t.Fatal("a spilled image changed after the builder moved on")
			}
		}
	})
}

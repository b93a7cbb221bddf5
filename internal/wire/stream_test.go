package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
)

// sink is a transport that keeps what is written and reads nothing.
type sink struct{ bytes.Buffer }

func (*sink) Read([]byte) (int, error) { return 0, io.EOF }

// streamOf encodes ch as an answer through a connection limited to
// limit (0: the default) and returns every frame it wrote, headers and
// all, and how many.
func streamOf(tb testing.TB, limit int, ch *Changes) ([]byte, int) {
	tb.Helper()
	var out sink
	c := Conn{MaxPayload: limit}
	c.Reset(&out)
	image, err := c.AppendChanges(c.Body(), ch)
	if err == nil {
		err = c.Send(TypeResult, trace.Context{}, image)
	}
	if err != nil {
		tb.Fatal(err)
	}
	frames := 0
	for rd := bytes.NewReader(out.Bytes()); ; frames++ {
		if _, err := ReadFrame(rd, 0); err != nil {
			break
		}
	}
	return out.Bytes(), frames
}

// readChanges reads one answer off stream through a ChangesReader and
// returns its elements, the payload sizes of its frames, and the first
// error: a frame that is no result, a refusal, or a stream that ends
// before its closing frame.
func readChanges(stream []byte, limit int) (Changes, []int, error) {
	ch := Changes{Records: []eard.JobRecord{}, Acct: []accounting.Record{}, Powers: []NodePower{}}
	var sizes []int
	var s ChangesReader
	c := Conn{MaxPayload: limit}
	c.Reset(&chunked{data: stream})
	for {
		f, err := c.Read()
		if err != nil {
			return ch, sizes, err
		}
		sizes = append(sizes, len(f.Payload))
		res, err := f.AsResult()
		if err != nil {
			return ch, sizes, err
		}
		done, err := s.Apply(res, keep(&ch.Records), keep(&ch.Acct), keep(&ch.Powers))
		if err != nil || done {
			return ch, sizes, err
		}
	}
}

// streamView is a whole view of nodes × jobs node reports, a window per
// node and job, and every node's power: strings shared across records,
// so a cut falls between a literal and its back-references.
func streamView(nodes, jobs int) *Changes {
	ch := &Changes{}
	for j := 0; j < jobs; j++ {
		for n := 0; n < nodes; n++ {
			node := fleetNode(n)
			ch.Records = append(ch.Records, eard.JobRecord{
				JobID: fmt.Sprintf("job%02d", j), StepID: "0", Node: node, App: "BT-MZ.C", Policy: "min_energy",
				TimeSec: 120, EnergyJ: 120 * float64(250+n), AvgPower: float64(250 + n), AvgCPU: 2.1, AvgIMC: 2.4,
			})
			ch.Acct = append(ch.Acct, accounting.Record{
				V: accounting.CodecVersion, JobID: fmt.Sprintf("job%02d", j), StepID: "0", User: "alice", Node: node,
				Policy: "min_energy", StartSec: 60 * float64(j), EndSec: 60 * float64(j+1), NodeJ: 31000 + float64(n),
			})
		}
	}
	for n := 0; n < nodes; n++ {
		ch.Powers = append(ch.Powers, NodePower{Node: fleetNode(n), PowerW: float64(250 + n)})
	}
	return ch
}

// TestChangesStreamEveryCut: from a limit of one element's worth up to
// past the whole view, an answer streams in frames none of them past
// the limit, and reads back as the elements it was encoded from; an
// answer cut nowhere is the one changes frame a connection-less encoder
// builds, and a limit one byte short of that cuts it in two.
func TestChangesStreamEveryCut(t *testing.T) {
	view := streamView(24, 4)
	whole, err := noConn.AppendChanges(nil, view)
	if err != nil {
		t.Fatal(err)
	}
	var limits []int
	for limit := 100; limit < len(whole); limit += 1 + limit/16 {
		limits = append(limits, limit)
	}
	for limit := len(whole) - 16; limit <= len(whole)+512; limit += 16 {
		limits = append(limits, limit)
	}
	wholeFrames := 0
	for _, limit := range limits {
		stream, frames := streamOf(t, limit, view)
		got, sizes, err := readChanges(stream, limit)
		if err != nil || !sameBits(got, Changes{Records: view.Records, Acct: view.Acct, Powers: view.Powers}) {
			t.Fatalf("limit %d: %d frames read back as %d records, %d acct, %d powers (err %v)",
				limit, frames, len(got.Records), len(got.Acct), len(got.Powers), err)
		}
		for i, n := range sizes {
			if n > limit {
				t.Fatalf("limit %d: frame %d of %d holds %d bytes", limit, i, frames, n)
			}
		}
		if frames == 1 {
			wholeFrames++
			if !bytes.Equal(stream[headerLen:], whole) {
				t.Fatalf("limit %d: a one-frame answer is not the changes frame", limit)
			}
		}
	}
	if wholeFrames == 0 {
		t.Fatal("no limit held the view in one frame")
	}
	if _, frames := streamOf(t, len(whole)-1, view); frames != 2 {
		t.Errorf("a limit a byte short of the view: %d frames, want 2", frames)
	}
}

// TestChangesStreamCutsAtTheKeptSize: under the default limit a view
// four times the kept size streams in frames that each fit a
// connection's kept buffer, headers and all, and the image they were
// built in stays kept.
func TestChangesStreamCutsAtTheKeptSize(t *testing.T) {
	view := streamView(200, 12)
	var out sink
	var c Conn
	c.Reset(&out)
	image, err := c.AppendChanges(c.Body(), view)
	if err == nil {
		err = c.Send(TypeResult, trace.Context{}, image)
	}
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() < 4*MaxKept {
		t.Fatalf("the view streamed %d bytes, want a view past four kept buffers", out.Len())
	}
	if got := c.Streamed() + len(image) - HeaderRoom; got+countFrames(t, out.Bytes())*headerLen != out.Len() {
		t.Errorf("Streamed and the closing frame account for %d payload bytes of %d streamed", got, out.Len())
	}
	for rd := bytes.NewReader(out.Bytes()); ; {
		f, err := ReadFrame(rd, 0)
		if err != nil {
			break
		}
		if headerLen+len(f.Payload) > MaxKept {
			t.Fatalf("a frame of %d bytes does not pass through a kept buffer", headerLen+len(f.Payload))
		}
	}
	if cap(c.Body()) > MaxKept || &c.Body()[0] != &image[0] {
		t.Error("the connection let go of the image the answer was built in")
	}
	got, _, err := readChanges(out.Bytes(), 0)
	if err != nil || !sameBits(got, Changes{Records: view.Records, Acct: view.Acct, Powers: view.Powers}) {
		t.Errorf("the view reads back as %d records (err %v)", len(got.Records), err)
	}
}

// TestPreStreamReaderRefusesAStreamedAnswer pins the upgrade order a
// streamed answer sets. A reader built before changes_part, kind byte
// 11, has no slot for it in its result table; it reads a changes answer
// as one frame and decodes that as the whole view. On a stream its first
// frame is refused with ErrPayload, so roots go before shards (DESIGN
// §7, "Mixed versions"), and a state file past one frame does not load
// in such a build. An answer that fits one frame still reads there.
func TestPreStreamReaderRefusesAStreamedAnswer(t *testing.T) {
	streamed, frames := streamOf(t, 0, streamView(200, 12))
	single, _ := streamOf(t, 0, streamView(4, 1))
	if partCode != 11 || frames < 2 {
		t.Fatalf("changes_part is kind byte %d and the view %d frames, want 11 and more than one", partCode, frames)
	}
	// The reader before the kind: its table ends at changes.
	defer func(kind string) { resultKinds[partCode] = kind }(resultKinds[partCode])
	resultKinds[partCode] = ""
	read := func(stream []byte) error {
		f, err := ReadFrame(bytes.NewReader(stream), 0)
		if err != nil {
			return err
		}
		res, err := f.AsResult()
		if err != nil {
			return err
		}
		var ch Changes
		return res.Decode(&ch)
	}
	if err := read(streamed); !errors.Is(err, ErrPayload) || !strings.Contains(err.Error(), "unknown result kind 11") {
		t.Errorf("a reader before changes_part read a streamed answer with err %v, want ErrPayload for kind 11", err)
	}
	if err := read(single); err != nil {
		t.Errorf("a reader before changes_part read a one-frame answer with err %v", err)
	}
}

// countFrames counts the frames of stream.
func countFrames(t *testing.T, stream []byte) int {
	t.Helper()
	n := 0
	for rd := bytes.NewReader(stream); ; n++ {
		if _, err := ReadFrame(rd, 0); err != nil {
			return n
		}
	}
}

// TestChangesStreamRefusesOneRecordPastTheLimit: a record whose own
// encoding is past the limit cannot be cut: its frame is refused before
// a byte of it is written, with the size and the limit, after the
// frames before it went.
func TestChangesStreamRefusesOneRecordPastTheLimit(t *testing.T) {
	view := streamView(8, 1)
	view.Records[5].App = string(bytes.Repeat([]byte{'x'}, 600))
	var out sink
	c := Conn{MaxPayload: 512}
	c.Reset(&out)
	_, err := c.AppendChanges(c.Body(), view)
	var size *SizeError
	if !errors.As(err, &size) || !errors.Is(err, ErrTooLarge) || size.Limit != 512 || size.Size <= 512 {
		t.Fatalf("err = %v, want the record's frame refused over the limit of 512", err)
	}
	frames := countFrames(t, out.Bytes())
	if frames == 0 || c.Streamed() == 0 {
		t.Errorf("%d frames streamed before the refusal, want the records before it", frames)
	}
}

// changesStreamSeeds is FuzzChangesStream's corpus: small views, each
// with the limit to cut it at.
func changesStreamSeeds() [][]byte {
	return [][]byte{
		{3, 2, 0, 60},
		{8, 1, 1, 200},
		{1, 1, 2, 0},
		{5, 3, 7, 255},
	}
}

// FuzzChangesStream streams a view chosen by the input at a limit it
// chooses, then hurts the stream as it says: a frame torn, dropped,
// swapped with the next, or the closing frame left off. The intact
// stream reads back whole; a hurt one never panics, and is refused or
// left open: it never reads back as a closed answer with elements lost
// or out of place.
func FuzzChangesStream(f *testing.F) {
	for _, seed := range changesStreamSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		view := streamView(1+int(in[0])%16, 1+int(in[1])%4)
		limit := 180 + 8*int(in[3])
		stream, _ := streamOf(t, limit, view)
		var frames [][]byte
		for rd := bytes.NewReader(stream); rd.Len() > 0; {
			at := len(stream) - rd.Len()
			if _, err := ReadFrame(rd, 0); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, stream[at:len(stream)-rd.Len()])
		}
		want := Changes{Records: view.Records, Acct: view.Acct, Powers: view.Powers}
		if got, _, err := readChanges(stream, limit); err != nil || !sameBits(got, want) {
			t.Fatalf("the intact stream of %d frames reads back as %+v (err %v)", len(frames), got, err)
		}
		i := int(in[2]>>2) % len(frames)
		hurt := make([][]byte, len(frames))
		copy(hurt, frames)
		switch in[2] & 3 {
		case 0: // torn
			hurt[i] = hurt[i][:len(hurt[i])/2]
			hurt = hurt[:i+1]
		case 1: // dropped
			hurt = append(hurt[:i], hurt[i+1:]...)
		case 2: // swapped with the next
			if i+1 == len(hurt) {
				return
			}
			hurt[i], hurt[i+1] = hurt[i+1], hurt[i]
		case 3: // unterminated
			hurt = hurt[:len(hurt)-1]
		}
		got, _, err := readChanges(bytes.Join(hurt, nil), limit)
		if err == nil && sameBits(got, want) {
			t.Fatalf("a stream hurt by %d at frame %d of %d read back whole", in[2]&3, i, len(frames))
		}
		if err == nil {
			t.Fatalf("a stream hurt by %d at frame %d of %d read back as a closed answer", in[2]&3, i, len(frames))
		}
	})
}

package serve

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"enduratrace/internal/mediasim"
	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
)

// drain reads r to its end in batches of the given size, and returns the
// events and the error that ended the stream.
func drain(r trace.Reader, batch int) ([]trace.Event, error) {
	var out []trace.Event
	dst := make([]trace.Event, batch)
	for {
		n, err := r.ReadBatch(dst)
		out = append(out, dst[:n]...)
		if err != nil {
			return out, err
		}
	}
}

// TestReaderContract holds every trace.Reader to the one contract: read
// in batches of 1, 7 and 512, a reader gives the same events, the same
// sizes and the same error that ends the stream, and that error comes
// back on every later read. The clean readers give exactly the
// simulation's events; a torn file or framed stream gives a prefix of
// them and an unexpected EOF.
func TestReaderContract(t *testing.T) {
	sc := mediasim.DefaultConfig()
	sc.Duration = 2 * time.Second
	sc.Seed = 3
	evs, err := mediasim.Events(sc)
	if err != nil {
		t.Fatal(err)
	}
	file, err := traceio.AppendBinary(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	framed := func(end bool) []byte {
		var buf bytes.Buffer
		fw, err := traceio.NewFrameWriter(&buf, "s")
		if err != nil {
			t.Fatal(err)
		}
		fw.FrameBytes = 256
		for _, ev := range evs {
			if err := fw.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if end {
			err = fw.Close()
		} else {
			err = fw.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	clean, torn := framed(true), framed(false)

	readers := []struct {
		name  string
		open  func(t *testing.T) trace.Reader
		clean bool // ends with io.EOF after every event; else a prefix and unexpected EOF
	}{
		{"SliceReader", func(*testing.T) trace.Reader { return trace.NewSliceReader(evs) }, true},
		{"BinaryReader", func(t *testing.T) trace.Reader {
			br, err := traceio.NewBinaryReader(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			return br
		}, true},
		{"BinaryReader torn", func(t *testing.T) trace.Reader {
			br, err := traceio.NewBinaryReader(bytes.NewReader(file[:len(file)-2]))
			if err != nil {
				t.Fatal(err)
			}
			return br
		}, false},
		{"FrameReader", func(t *testing.T) trace.Reader {
			fr, err := traceio.NewFrameReader(bytes.NewReader(clean))
			if err != nil {
				t.Fatal(err)
			}
			return fr
		}, true},
		{"FrameReader torn", func(t *testing.T) trace.Reader {
			fr, err := traceio.NewFrameReader(bytes.NewReader(torn[:len(torn)-3]))
			if err != nil {
				t.Fatal(err)
			}
			return fr
		}, false},
		{"mediasim.Sim", func(t *testing.T) trace.Reader {
			sim, err := mediasim.New(sc)
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}, true},
		{"eventQueue", func(*testing.T) trace.Reader {
			q := newEventQueue(64, Block, &obs.Pipeline{}, 0)
			go func() {
				// Priced as the ingester prices it: the reader's count,
				// stored before each push.
				acct := traceio.NewSizeAccountant()
				for rest := evs; len(rest) > 0; {
					k := min(len(rest), 100)
					for _, ev := range rest[:k] {
						acct.Write(ev)
					}
					q.evBytes.Store(acct.Bytes() - int64(traceio.HeaderSize()))
					q.PushBatch(rest[:k], obs.Now(), 0)
					rest = rest[k:]
				}
				q.Close()
			}()
			return q
		}, true},
	}
	full := traceio.NewSizeAccountant()
	for _, ev := range evs {
		full.Write(ev)
	}
	for _, rd := range readers {
		var (
			first    []trace.Event
			firstErr error
			size     int64
		)
		for _, batch := range []int{1, 7, 512} {
			r := rd.open(t)
			got, end := drain(r, batch)
			if n, again := r.ReadBatch(make([]trace.Event, batch)); n != 0 || again == nil || again.Error() != end.Error() {
				t.Fatalf("%s, batches of %d: after %v a read gives %d events, %v", rd.name, batch, end, n, again)
			}
			// A reader that counts its events' encoded size counts that of
			// the events it gave.
			acct := traceio.NewSizeAccountant()
			for _, ev := range got {
				acct.Write(ev)
			}
			if c, ok := r.(interface{ EventBytes() int64 }); ok {
				if b := int64(traceio.HeaderSize()) + c.EventBytes(); b != acct.Bytes() {
					t.Fatalf("%s, batches of %d: counts %d bytes, its events encode to %d", rd.name, batch, b, acct.Bytes())
				}
			}
			if fr, ok := r.(*traceio.FrameReader); ok {
				fr.Release()
			}

			if batch == 1 {
				first, firstErr, size = got, end, acct.Bytes()
				switch {
				case rd.clean && (end != io.EOF || len(got) != len(evs) || acct.Bytes() != full.Bytes()):
					t.Fatalf("%s: %d events (%d bytes), then %v; want all %d (%d bytes), then EOF",
						rd.name, len(got), acct.Bytes(), end, len(evs), full.Bytes())
				case !rd.clean && (!errors.Is(end, io.ErrUnexpectedEOF) || len(got) == 0 || len(got) >= len(evs)):
					t.Fatalf("%s: %d of %d events, then %v; want a prefix, then unexpected EOF", rd.name, len(got), len(evs), end)
				}
				for i := range got {
					if !evEq(got[i], evs[i]) {
						t.Fatalf("%s: event %d is %v, want %v", rd.name, i, got[i], evs[i])
					}
				}
				continue
			}
			if end.Error() != firstErr.Error() || len(got) != len(first) || acct.Bytes() != size {
				t.Fatalf("%s, batches of %d: %d events (%d bytes), then %v; batches of one: %d (%d bytes), then %v",
					rd.name, batch, len(got), acct.Bytes(), end, len(first), size, firstErr)
			}
			for i := range got {
				if !evEq(got[i], first[i]) {
					t.Fatalf("%s, batches of %d: event %d is %v, batches of one %v", rd.name, batch, i, got[i], first[i])
				}
			}
		}
	}
}

package anomalystore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
	"enduratrace/internal/window"
)

// testIncident builds a deterministic incident with i-dependent content so
// round-trip mismatches are attributable to a specific record.
func testIncident(i int) Incident {
	mkWin := func(idx int) window.Window {
		evs := make([]trace.Event, 0, 8)
		for j := 0; j < 8; j++ {
			var pl []byte // nil when empty: the codec decodes no payload as nil
			if j%3 != 0 {
				pl = bytes.Repeat([]byte{byte(i)}, j%3*16)
			}
			evs = append(evs, trace.Event{
				TS:      time.Duration(idx*1000+j) * time.Millisecond,
				Type:    trace.EventType(j % 5),
				Arg:     uint64(i*100 + j),
				Payload: pl,
			})
		}
		return window.Window{
			Index:  idx,
			Start:  time.Duration(idx) * time.Second,
			End:    time.Duration(idx+1) * time.Second,
			Events: evs,
		}
	}
	return Incident{
		Stream:      fmt.Sprintf("stream-%02d", i%3),
		Model:       "model-a",
		ModelGen:    int64(i % 2),
		Wall:        time.Unix(1700000000+int64(i), int64(i)*1001).UTC(),
		Score:       2.5 + float64(i)*0.125,
		GateDist:    0.75 + float64(i)*0.0625,
		Alpha:       2.5,
		Anomalous:   i%2 == 0,
		WindowIndex: i + 2,
		Start:       time.Duration(i+2) * time.Second,
		End:         time.Duration(i+3) * time.Second,
		Windows:     []window.Window{mkWin(i), mkWin(i + 1), mkWin(i + 2)},
	}
}

// appendN appends n test incidents and returns them with their assigned
// sequence numbers filled in.
func appendN(t *testing.T, s *Store, n int) []Incident {
	t.Helper()
	incs := make([]Incident, 0, n)
	for i := 0; i < n; i++ {
		inc := testIncident(i)
		seq, err := s.Append(inc)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		inc.Seq = seq
		incs = append(incs, inc)
	}
	return incs
}

// walkAll collects every incident a Reader can see.
func walkAll(t *testing.T, dir string) ([]*Incident, []SegmentScan) {
	t.Helper()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Incident
	scans, err := r.Walk(func(inc *Incident) error {
		got = append(got, inc)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, scans
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 25)
	st := s.Stats()
	if st.Appended != 25 || st.Incidents != 25 || st.Recovered != 0 {
		t.Fatalf("stats %+v, want 25 appended", st)
	}
	if st.LastSeq != 25 || st.Segments != 1 {
		t.Fatalf("stats %+v, want last seq 25 in 1 segment", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.Append(Incident{}); err == nil {
		t.Fatal("append on closed store succeeded")
	}

	got, scans := walkAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("walked %d incidents, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(*got[i], want[i]) {
			t.Fatalf("incident %d round-trip mismatch:\n got %+v\nwant %+v", i, *got[i], want[i])
		}
	}
	if len(scans) != 1 || !scans[0].Sealed || scans[0].Truncated {
		t.Fatalf("scan %+v, want one sealed untruncated segment", scans)
	}
	if scans[0].FirstSeq != 1 || scans[0].LastSeq != 25 {
		t.Fatalf("scan sequence range %d..%d, want 1..25", scans[0].FirstSeq, scans[0].LastSeq)
	}

	// Recent keeps metas newest-last; Get round-trips through the Store.
	recent := s.Recent(5)
	if len(recent) != 5 || recent[4].Seq != 25 {
		t.Fatalf("recent %+v, want 5 entries ending at seq 25", recent)
	}
	inc, err := s.Get(13)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*inc, want[12]) {
		t.Fatalf("Get(13) mismatch: %+v", *inc)
	}
}

func TestStoreRotationAndGet(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation, so Get runs across several sealed
	// segments.
	s, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 60)
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("only %d segments after 60 appends of ~%dB records, rotation broken", st.Segments, 4096)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments() != st.Segments {
		t.Fatalf("reader sees %d segments, store reported %d", r.Segments(), st.Segments)
	}
	// Get every record back.
	for _, w := range want {
		inc, err := r.Get(w.Seq)
		if err != nil {
			t.Fatalf("Get(%d): %v", w.Seq, err)
		}
		if !reflect.DeepEqual(*inc, w) {
			t.Fatalf("Get(%d) mismatch", w.Seq)
		}
	}
	if _, err := r.Get(0); err != ErrNotFound {
		t.Fatalf("Get(0) = %v, want ErrNotFound", err)
	}
	if _, err := r.Get(uint64(len(want) + 1)); err != ErrNotFound {
		t.Fatalf("Get(past end) = %v, want ErrNotFound", err)
	}

	got, _ := walkAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("walked %d incidents across segments, want %d", len(got), len(want))
	}
}

// TestReadsStoreWithIndexTrailer reads testdata/prev-store, written by
// the version that appended a sparse index behind each sealed segment's
// end marker: segment 1 holds testIncident(0..6), sealed with its "EAIX"
// trailer; segment 8 holds testIncident(7..9), left unsealed as by a
// crash. Open, Walk and Get must read it record for record.
func TestReadsStoreWithIndexTrailer(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "prev-store")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += int64(len(b))
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]Incident, 10)
	for i := range want {
		want[i] = testIncident(i)
		want[i].Seq = uint64(i + 1)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Recovered != 10 || st.LastSeq != 10 || st.Bytes != onDisk {
		t.Fatalf("reopened books %+v, want 10 records recovered and %d bytes", st, onDisk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, scans := walkAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("walked %d incidents, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(*got[i], want[i]) {
			t.Fatalf("incident %d mismatch:\n got %+v\nwant %+v", i, *got[i], want[i])
		}
	}
	if len(scans) != 2 || !scans[0].Sealed || scans[1].Sealed || scans[0].Truncated || scans[1].Truncated {
		t.Fatalf("scans %+v, want one sealed and one unsealed segment, neither truncated", scans)
	}
	if scans[0].FirstSeq != 1 || scans[0].LastSeq != 7 {
		t.Fatalf("sealed segment holds %d..%d, want 1..7", scans[0].FirstSeq, scans[0].LastSeq)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 4, 7} { // first, middle and last of the sealed segment
		inc, err := r.Get(seq)
		if err != nil {
			t.Fatalf("Get(%d): %v", seq, err)
		}
		if !reflect.DeepEqual(*inc, want[seq-1]) {
			t.Fatalf("Get(%d) mismatch", seq)
		}
	}
}

// TestCrashDurability simulates kill -9: the active segment is never
// sealed, and its tail may be cut mid-record. Reopening must recover every
// complete record, flag the damage, and never panic; a new Store over the
// same dir must continue the sequence without reusing numbers.
func TestCrashDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 40)
	// Crash: drop the store on the floor without Close. The *os.File goes
	// out of scope unsealed, exactly like SIGKILL (data was fsynced per
	// append, the seal never happened).
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need >=2 segments to test crash recovery, got %d", len(segs))
	}
	active := segs[len(segs)-1].path

	got, scans := walkAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("recovered %d incidents after crash, want %d", len(got), len(want))
	}
	last := scans[len(scans)-1]
	if last.Sealed {
		t.Fatal("crashed active segment reads as sealed")
	}
	if last.Truncated {
		t.Fatal("active segment cut at a record boundary flagged as truncated")
	}
	for _, sc := range scans[:len(scans)-1] {
		if !sc.Sealed {
			t.Fatalf("rotated segment not sealed: %+v", sc)
		}
	}

	// Tear the active segment mid-record: every cut length from the record
	// boundary back into the previous record must still yield the earlier
	// records and a clean Truncated flag.
	whole, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 40; cut += 7 {
		if cut >= len(whole) {
			break
		}
		torn := filepath.Join(t.TempDir(), "torn.seg")
		if err := os.WriteFile(torn, whole[:len(whole)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		scan, err := scanSegmentFile(torn, nil)
		if err != nil {
			t.Fatalf("cut %d: scan error %v", cut, err)
		}
		if !scan.Truncated {
			t.Fatalf("cut %d: torn tail not flagged truncated: %+v", cut, scan)
		}
		if scan.Records >= last.Records || scan.LastSeq >= last.LastSeq {
			// The tear removed at least the final record.
			t.Fatalf("cut %d: scan %+v counts the torn record", cut, scan)
		}
	}

	// Flip a byte inside a payload: the CRC must reject the record and
	// everything after it, again without error or panic.
	corrupt := append([]byte(nil), whole...)
	corrupt[len(corrupt)/2] ^= 0xFF
	scan, err := ScanSegment(bytes.NewReader(corrupt), nil)
	if err != nil {
		t.Fatalf("corrupt scan error: %v", err)
	}
	if !scan.Truncated {
		t.Fatal("bit flip not caught by the record CRC")
	}
	if scan.Records >= last.Records {
		t.Fatalf("corrupt scan counted %d records, active had %d intact", scan.Records, last.Records)
	}

	// Reopen the directory as a Store: sequence numbering continues past
	// everything recovered, and old + new records coexist.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Recovered != int64(len(want)) {
		t.Fatalf("reopen recovered %d, want %d", st.Recovered, len(want))
	}
	seq, err := s2.Append(testIncident(99))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= want[len(want)-1].Seq {
		t.Fatalf("reopened store reused sequence %d (last was %d)", seq, want[len(want)-1].Seq)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = walkAll(t, dir)
	if len(got) != len(want)+1 {
		t.Fatalf("after reopen+append walked %d, want %d", len(got), len(want)+1)
	}
	if got[len(got)-1].Seq != seq {
		t.Fatalf("appended incident seq %d not last in walk (%d)", seq, got[len(got)-1].Seq)
	}
}

// TestOpenOnCrashedEmptySegment: a crash can leave a segment holding no
// intact record — only its header, or a header cut short anywhere (zero
// bytes included) between create and the header write. Reopening books
// exactly the records that landed, never hands out a number the
// segment's filename reserved, and its next Append is durable; a file
// that is no segment prefix (bad magic, unsupported version) still fails
// Open.
func TestOpenOnCrashedEmptySegment(t *testing.T) {
	hdr := append([]byte(segMagic), segVersion, 7) // baseSeq uvarint: 7
	for _, tc := range []struct {
		name   string
		head   []byte
		booked int64 // bytes the file adds to the books
		bad    bool
	}{
		{name: "header only", head: hdr, booked: int64(len(hdr))},
		{name: "zero bytes"},
		{name: "three bytes", head: hdr[:3]},
		{name: "magic and version", head: hdr[:len(segMagic)+1]},
		{name: "bad magic", head: []byte("EASX"), bad: true},
		{name: "bad magic prefix", head: []byte("EB"), bad: true},
		{name: "unsupported version", head: append([]byte(segMagic), segVersion+1), bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, s, 2)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			want := StoreStats{Recovered: 2, Incidents: 2, Bytes: s.Stats().Bytes + tc.booked}
			if err := os.WriteFile(filepath.Join(dir, segmentName(7)), tc.head, 0o644); err != nil {
				t.Fatal(err)
			}

			s, err = Open(dir, Options{})
			if tc.bad {
				if err == nil {
					s.Close()
					t.Fatal("Open accepted a file that is not a segment")
				}
				return
			}
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			st := s.Stats()
			if got := (StoreStats{Recovered: st.Recovered, Incidents: st.Incidents, Bytes: st.Bytes}); got != want {
				t.Fatalf("reopened books %+v, want %+v", got, want)
			}
			seq, err := s.Append(testIncident(2))
			if err != nil {
				t.Fatal(err)
			}
			if seq <= 7 {
				t.Fatalf("reopened store assigned seq %d inside the crashed segment's reservation", seq)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got, _ := walkAll(t, dir); len(got) != 3 || got[2].Seq != seq {
				t.Fatalf("walked %d records after reopen, want 3 ending at seq %d", len(got), seq)
			}
		})
	}
}

func TestDecodeIncidentRejectsCorruptLengths(t *testing.T) {
	inc := testIncident(3)
	inc.Seq = 1
	payload, err := appendIncident(nil, &inc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeIncident(payload); err != nil {
		t.Fatalf("clean payload failed to decode: %v", err)
	}
	// Every prefix of a valid payload must error cleanly, never panic.
	for n := 0; n < len(payload); n++ {
		if _, err := DecodeIncident(payload[:n]); err == nil {
			t.Fatalf("truncated payload of %d bytes decoded without error", n)
		}
	}
}

// TestDecodeIncidentAllocBytes: decoding a record of three 42-event
// windows allocates the incident and its events, not a read buffer per
// window — under 32 KiB in all.
func TestDecodeIncidentAllocBytes(t *testing.T) {
	payload := wideRecord(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		inc, err := DecodeIncident(payload)
		if err != nil {
			t.Fatal(err)
		}
		decodeSink = inc
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 32<<10 {
		t.Fatalf("decoding a %d-byte record allocates %d bytes, want under 32 KiB", len(payload), per)
	}
}

// TestAlertRecordRoundTrip covers the alert-pipeline transition records:
// window-free incidents whose flags carry the firing/resolved marker.
// They must round-trip the Alert field, skip replay (no principal
// window), and reject the corrupt both-bits case.
func TestAlertRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(alert string, anom bool) Incident {
		return Incident{
			Stream:      "flap-0",
			Model:       "model-a",
			ModelGen:    3,
			Wall:        time.Unix(1700000100, 42).UTC(),
			Score:       3.25,
			GateDist:    1.5,
			Alpha:       2.5,
			Anomalous:   anom,
			Alert:       alert,
			WindowIndex: 17,
			Start:       17 * time.Second,
			End:         18 * time.Second,
		}
	}
	want := []Incident{mk("firing", true), mk("resolved", false), mk("", true)}
	for i, inc := range want {
		seq, err := s.Append(inc)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want[i].Seq = seq
	}
	if _, err := s.Append(mk("exploded", false)); err == nil {
		t.Fatal("append accepted an unknown alert marker")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, _ := walkAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("walked %d records, want %d", len(got), len(want))
	}
	for i := range want {
		// A window-free record decodes into an empty (non-nil) slice;
		// normalise before the deep compare.
		if len(got[i].Windows) == 0 {
			got[i].Windows = nil
		}
		if !reflect.DeepEqual(*got[i], want[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, *got[i], want[i])
		}
		if got[i].Principal() >= 0 {
			t.Fatalf("record %d: window-free alert record has a principal window", i)
		}
	}
	metas := s.Recent(0)
	if metas[0].Alert != "firing" || metas[1].Alert != "resolved" || metas[2].Alert != "" {
		t.Fatalf("metas carry wrong alert markers: %+v", metas)
	}

	// Both alert bits set is corrupt, never a silent pick-one.
	payload, err := appendIncident(nil, &Incident{Seq: 9, Stream: "s", Model: "m", Alert: "firing"})
	if err != nil {
		t.Fatal(err)
	}
	// Flip in the resolved bit: the flags uvarint follows seq, wall,
	// stream, model, gen, and three fixed floats — locate it by
	// re-encoding with the other marker and diffing.
	other, err := appendIncident(nil, &Incident{Seq: 9, Stream: "s", Model: "m", Alert: "resolved"})
	if err != nil {
		t.Fatal(err)
	}
	diff := -1
	for i := range payload {
		if payload[i] != other[i] {
			diff = i
			break
		}
	}
	if diff < 0 {
		t.Fatal("could not locate the flags byte")
	}
	payload[diff] |= other[diff]
	if _, err := DecodeIncident(payload); err == nil {
		t.Fatal("decode accepted both alert bits set")
	}
}

// TestIncidentMetaMarshalNonFinite: incidents recorded with +Inf gate
// distance (disjoint distributions) must not error out the JSON encoding
// of the whole /anomalies body — non-finite scores render as null in the
// meta's verdict, and the meta's own fields survive beside it.
func TestIncidentMetaMarshalNonFinite(t *testing.T) {
	inc := Incident{Seq: 7, Stream: "s", Model: "m", Score: math.NaN(), GateDist: math.Inf(1)}
	verdict := func() map[string]any {
		t.Helper()
		b, err := json.Marshal(inc.Meta())
		if err != nil {
			t.Fatalf("non-finite meta failed to marshal: %v", err)
		}
		var got map[string]any
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("marshaled meta is not valid JSON: %v\n%s", err, b)
		}
		if got["seq"] != 7.0 || got["stream"] != "s" {
			t.Fatalf("meta fields mangled: %v", got)
		}
		v, _ := got["verdict"].(map[string]any)
		return v
	}
	// The record layout has no gate threshold, so it is null too.
	if v := verdict(); v == nil || v["lof"] != nil || v["gate_dist"] != nil || v["gate_threshold"] != nil {
		t.Fatalf("non-finite scores not null: verdict %v", v)
	}
	inc.Score, inc.GateDist = 2.5, 0.75
	if v := verdict(); v["lof"] != 2.5 || v["gate_dist"] != 0.75 {
		t.Fatalf("finite scores mangled: %v", v)
	}
}

// TestIncidentOfVerdict: an incident built from a verdict gives that
// verdict back, but for the gate threshold, which the record does not
// carry, and the trip, which every record is.
func TestIncidentOfVerdict(t *testing.T) {
	v := obs.Verdict{WindowIndex: 9, Start: time.Second, End: time.Second + 40*time.Millisecond,
		GateDist: 0.3, GateThreshold: 0.1, LOF: 2.7, Alpha: 2.5, GateTripped: true, Anomalous: true}
	inc := IncidentOf(v)
	got := inc.Verdict()
	if !math.IsNaN(got.GateThreshold) {
		t.Fatalf("gate threshold %g, want NaN", got.GateThreshold)
	}
	got.GateThreshold = v.GateThreshold
	if got != v {
		t.Fatalf("verdict %+v, want %+v", got, v)
	}
}

// TestReopenBooksSegmentBytes: a reopened store books the bytes of the
// segments it recovered — sealed files whole, the crashed active segment
// through its last intact record — so Stats().Bytes carries on from where
// the crashed store left it, and a torn tail is not counted.
func TestReopenBooksSegmentBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 40)
	before := s.Stats().Bytes
	// Crash: no Close, the active segment stays unsealed.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need a sealed and an active segment, got %d", len(segs))
	}
	var onDisk int64
	for _, seg := range segs {
		fi, err := os.Stat(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if before != onDisk {
		t.Fatalf("live store books %d bytes, segment files hold %d", before, onDisk)
	}

	reopened := func() int64 {
		t.Helper()
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		return s2.Stats().Bytes
	}
	if got := reopened(); got != onDisk {
		t.Fatalf("reopened store books %d bytes, want the %d on disk", got, onDisk)
	}

	// Tear the tail: half of a record after the last intact one.
	active := segs[len(segs)-1].path
	whole, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(whole[len(whole)-30 : len(whole)-10]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if scan, err := scanSegmentFile(active, nil); err != nil || !scan.Truncated {
		t.Fatalf("torn segment scans as %+v, %v; want Truncated", scan, err)
	}
	if got := reopened(); got != onDisk {
		t.Fatalf("store reopened over a torn tail books %d bytes, want %d (tail not counted)", got, onDisk)
	}
}

// TestUndecodableRecordIsTruncation: a record whose length and CRC check
// out but whose payload does not decode ends its segment's walk as
// damage. Walk flags the segment truncated and Replay counts it; they
// used to report the segment as whole and skip the rest of it silently.
func TestUndecodableRecordIsTruncation(t *testing.T) {
	dir := t.TempDir()
	payload := []byte{0x01} // sequence number 1, then nothing an incident needs
	seg := append([]byte(segMagic), segVersion, 1, byte(len(payload)))
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload))
	seg = append(seg, payload...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	got, scans := walkAll(t, dir)
	if len(got) != 0 || len(scans) != 1 || scans[0].Records != 0 || !scans[0].Truncated {
		t.Fatalf("walked %d incidents, scans %+v; want none and one truncated segment", len(got), scans)
	}

	sc := mediasim.DefaultConfig()
	sc.Duration = 10 * time.Second
	sim, err := mediasim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(mediasim.NumEventTypes)
	learned, err := core.Learn(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(dir, []*core.NamedModel{{Name: "default", Cfg: cfg, Learned: learned}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 || rep.TruncatedSegments != 1 || rep.Incidents != 0 {
		t.Fatalf("replay: %d segments, %d truncated, %d incidents; want 1, 1, 0",
			rep.Segments, rep.TruncatedSegments, rep.Incidents)
	}
}

// TestOpenBooksWhatWalkReads: Open recovers a segment exactly as far as
// Walk reads it. A CRC-clean record that does not decode ends both; Open
// used to book it, and every clean record after it, as recovered. The
// sequence numbers those records hold on disk are still never handed out
// again.
func TestOpenBooksWhatWalkReads(t *testing.T) {
	dir := t.TempDir()
	record := func(payload []byte) []byte {
		rec := binary.AppendUvarint(nil, uint64(len(payload)))
		rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
		return append(rec, payload...)
	}
	incident := func(seq uint64) []byte {
		inc := testIncident(int(seq))
		inc.Seq = seq
		payload, err := appendIncident(nil, &inc)
		if err != nil {
			t.Fatal(err)
		}
		return record(payload)
	}
	seg := append([]byte(segMagic), segVersion, 1)
	seg = append(seg, incident(1)...)
	seg = append(seg, record([]byte{0x02})...) // sequence number 2, then nothing an incident needs
	seg = append(seg, incident(3)...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	walked, scans := walkAll(t, dir)
	if len(walked) != 1 || len(scans) != 1 || !scans[0].Truncated {
		t.Fatalf("walked %d incidents, scans %+v; want 1 and one truncated segment", len(walked), scans)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Recovered != int64(len(walked)) || st.Incidents != int64(len(walked)) || st.Bytes != scans[0].Bytes {
		t.Fatalf("Open booked %d recovered, %d incidents, %d bytes; Walk read %d incidents in %d bytes",
			st.Recovered, st.Incidents, st.Bytes, len(walked), scans[0].Bytes)
	}
	seq, err := s.Append(testIncident(4))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= 3 {
		t.Fatalf("reopened store assigned seq %d, a number already on disk", seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := walkAll(t, dir); len(got) != 2 || got[1].Seq != seq {
		t.Fatalf("walked %d incidents after the append, want 2 ending at seq %d", len(got), seq)
	}
}

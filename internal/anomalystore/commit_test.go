package anomalystore

import (
	"errors"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faults is the fault-injection seam of the commit-protocol tests: every
// segment file a faultStore creates is wrapped so that a test can hold a
// Sync at its entry, make the next Sync fail, or cut the next Write short.
type faults struct {
	// entered receives one token per Sync call, before it blocks or fails.
	entered chan struct{}
	// wrote receives one token per Write call that went through whole.
	wrote chan struct{}

	mu         sync.Mutex
	gate       chan struct{} // non-nil: a Sync waits for a token (or close) before it proceeds
	syncErr    error         // the next Sync returns this instead of syncing
	shortWrite bool          // the next Write stores half its bytes and fails
	// closedUnderSync is set if a file was ever closed with a Sync running.
	closedUnderSync atomic.Bool
}

type faultFile struct {
	segFile
	ctl    *faults
	inSync atomic.Int32
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.ctl.mu.Lock()
	short := f.ctl.shortWrite
	f.ctl.shortWrite = false
	f.ctl.mu.Unlock()
	if short {
		n, _ := f.segFile.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	n, err := f.segFile.Write(p)
	f.ctl.wrote <- struct{}{}
	return n, err
}

func (f *faultFile) Sync() error {
	f.inSync.Add(1)
	defer f.inSync.Add(-1)
	f.ctl.mu.Lock()
	gate, err := f.ctl.gate, f.ctl.syncErr
	f.ctl.syncErr = nil
	f.ctl.mu.Unlock()
	f.ctl.entered <- struct{}{}
	if gate != nil {
		<-gate
	}
	if err != nil {
		return err
	}
	return f.segFile.Sync()
}

func (f *faultFile) Close() error {
	if f.inSync.Load() != 0 {
		f.ctl.closedUnderSync.Store(true)
	}
	return f.segFile.Close()
}

// faultStore opens a store whose segment files go through ctl.
func faultStore(t *testing.T, dir string, opts Options) (*Store, *faults) {
	t.Helper()
	// Both channels only ever hold tokens the test has not collected yet;
	// sized past anything a test here produces so the store never blocks
	// on the test.
	ctl := &faults{entered: make(chan struct{}, 1<<12), wrote: make(chan struct{}, 1<<12)}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.create = func(path string) (segFile, error) {
		f, err := createSegmentFile(path)
		if err != nil {
			return nil, err
		}
		return &faultFile{segFile: f, ctl: ctl}, nil
	}
	s.mu.Unlock()
	return s, ctl
}

func (c *faults) setGate(g chan struct{}) {
	c.mu.Lock()
	c.gate = g
	c.mu.Unlock()
}

// await receives n tokens from ch or fails the test.
func await(t *testing.T, ch <-chan struct{}, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s (%d of %d)", what, i, n)
		}
	}
}

// eventually polls cond until it holds or fails the test.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitBatches holds the committer inside its first Sync, lets
// eight appenders write behind it, and checks the protocol's two
// promises: everything written during a flush rides the next one (exactly
// two fsyncs for nine records), and no Append returns before the Sync
// that covers its record has.
func TestGroupCommitBatches(t *testing.T) {
	s, ctl := faultStore(t, t.TempDir(), Options{})
	gate := make(chan struct{})
	ctl.setGate(gate)

	first, err := s.Submit(testIncident(0))
	if err != nil {
		t.Fatal(err)
	}
	await(t, ctl.entered, 1, "the committer to enter Sync")
	await(t, ctl.wrote, 2, "the header and first record") // drain

	const appenders = 8
	var returned atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Append(testIncident(i + 1)); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
			returned.Add(1)
		}()
	}
	await(t, ctl.wrote, appenders, "the appenders' writes")
	if st := s.Stats(); st.LastSeq != first+appenders || st.DurableSeq != first-1 {
		t.Fatalf("mid-flush stats %+v, want %d written and nothing durable", st, first+appenders)
	}

	gate <- struct{}{} // the first flush ends: it covered only the first record
	await(t, ctl.entered, 1, "the second Sync")
	if err := s.WaitDurable(first); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DurableSeq != first || st.Syncs != 1 {
		t.Fatalf("after the first flush: %+v, want durable %d after 1 sync", st, first)
	}
	if n := returned.Load(); n != 0 {
		t.Fatalf("%d appenders returned before the Sync covering their records", n)
	}

	gate <- struct{}{}
	wg.Wait()
	st := s.Stats()
	if st.Syncs != 2 || st.SyncedRecords != appenders+1 || st.DurableSeq != first+appenders {
		t.Fatalf("final stats %+v, want 2 syncs covering %d records", st, appenders+1)
	}
	ctl.setGate(nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitAloneBecomesDurable: an isolated record must not sit in the
// page cache until somebody asks about it or the next one arrives.
func TestSubmitAloneBecomesDurable(t *testing.T) {
	s, ctl := faultStore(t, t.TempDir(), Options{})
	defer s.Close()
	seq, err := s.Submit(testIncident(0))
	if err != nil {
		t.Fatal(err)
	}
	await(t, ctl.entered, 1, "a Sync nobody asked for")
	eventually(t, "the lone record to become durable", func() bool { return s.Stats().DurableSeq == seq })
}

// TestSyncErrorFailsItsBatch: a failed fsync fails every record in the
// file that was not durable yet — the one being flushed and those written
// behind it — for waiters present and late; the file is retired, the next
// record opens a fresh segment, and everything acknowledged reads back.
func TestSyncErrorFailsItsBatch(t *testing.T) {
	dir := t.TempDir()
	s, ctl := faultStore(t, dir, Options{})
	if _, err := s.Append(testIncident(0)); err != nil { // seq 1: durable before the fault
		t.Fatal(err)
	}
	await(t, ctl.entered, 1, "the first record's Sync")

	injected := errors.New("injected EIO")
	gate := make(chan struct{})
	ctl.mu.Lock()
	ctl.gate, ctl.syncErr = gate, injected
	ctl.mu.Unlock()
	for i := 1; i <= 3; i++ { // seqs 2..4: 2 in the failing flush, 3 and 4 behind it
		if _, err := s.Submit(testIncident(i)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			await(t, ctl.entered, 1, "the failing Sync")
		}
	}
	waiter := make(chan error, 1)
	go func() { waiter <- s.WaitDurable(3) }()
	ctl.setGate(nil)
	close(gate)
	if err := <-waiter; !errors.Is(err, injected) {
		t.Fatalf("waiter on the failed batch got %v, want the injected error", err)
	}

	var acked []uint64
	for i := 4; i <= 5; i++ { // seqs 5, 6
		seq, err := s.Append(testIncident(i))
		if err != nil {
			t.Fatalf("append after the failed flush: %v", err)
		}
		acked = append(acked, seq)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		err := s.WaitDurable(seq)
		if failed := seq >= 2 && seq <= 4; failed != errors.Is(err, injected) {
			t.Fatalf("WaitDurable(%d) = %v; the failed batch is exactly 2..4", seq, err)
		}
	}
	st := s.Stats()
	if st.SyncErrors != 1 || st.Segments != 2 || st.Appended != 6 || st.DurableSeq != 6 {
		t.Fatalf("stats %+v, want 1 sync error, 2 segments, 6 written, mark at 6", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, scans := walkAll(t, dir)
	have := make(map[uint64]bool)
	for _, inc := range got {
		have[inc.Seq] = true
	}
	for _, seq := range append([]uint64{1}, acked...) {
		if !have[seq] {
			t.Fatalf("acknowledged record %d not read back (got %v)", seq, have)
		}
	}
	if len(scans) != 2 || scans[0].Sealed || !scans[1].Sealed || scans[1].FirstSeq != acked[0] {
		t.Fatalf("scans %+v, want the retired segment unsealed and a fresh sealed one from %d", scans, acked[0])
	}
}

// TestShortWritePoisonsOnlyItsSegment: a torn record must not strand what
// is written after it. The failed record spends its sequence number, the
// books count only the writes that landed, and the records on both sides
// of the tear read back.
func TestShortWritePoisonsOnlyItsSegment(t *testing.T) {
	dir := t.TempDir()
	s, ctl := faultStore(t, dir, Options{})
	want := appendN(t, s, 2)
	ctl.mu.Lock()
	ctl.shortWrite = true
	ctl.mu.Unlock()
	if _, err := s.Append(testIncident(2)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("torn append returned %v, want the short write", err)
	}
	if err := s.WaitDurable(3); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("WaitDurable on the torn record = %v", err)
	}
	for i := 3; i < 5; i++ {
		inc := testIncident(i)
		seq, err := s.Append(inc)
		if err != nil {
			t.Fatalf("append after the tear: %v", err)
		}
		inc.Seq = seq
		want = append(want, inc)
	}
	st := s.Stats()
	if st.Appended != 4 || st.LastSeq != 5 || st.DurableSeq != 5 || st.Segments != 2 || st.SyncErrors != 0 {
		t.Fatalf("stats %+v, want 4 appended, seqs to 5, 2 segments", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, scans := walkAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("read back %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Seq != w.Seq {
			t.Fatalf("record %d has seq %d, want %d", i, got[i].Seq, w.Seq)
		}
	}
	if len(scans) != 2 || !scans[0].Truncated || scans[0].Sealed || !scans[1].Sealed {
		t.Fatalf("scans %+v, want a torn unsealed segment and a sealed one", scans)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(3); err != ErrNotFound {
		t.Fatalf("Get of the torn record = %v, want ErrNotFound", err)
	}
	if inc, err := r.Get(4); err != nil || inc.Seq != 4 {
		t.Fatalf("Get(4) past the tear = %v, %v", inc, err)
	}
}

// TestFailedHeaderWriteLeavesNoSegment: a segment whose header write
// fails is removed, so nothing torn is left for the next Open to trip on
// and the books are those of the records that landed; the same store
// retries the same name and its next Append is durable.
func TestFailedHeaderWriteLeavesNoSegment(t *testing.T) {
	dir := t.TempDir()
	s, ctl := faultStore(t, dir, Options{})
	ctl.mu.Lock()
	ctl.shortWrite = true // the first segment's first Write is its header
	ctl.mu.Unlock()
	if _, err := s.Append(testIncident(0)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("append over a torn header returned %v, want the short write", err)
	}
	if segs, err := listSegments(dir); err != nil || len(segs) != 0 {
		t.Fatalf("%d segment files after the failed header (%v), want none", len(segs), err)
	}
	if st := s.Stats(); st.Appended != 0 || st.Segments != 0 || st.Bytes != 0 {
		t.Fatalf("books after the failed header %+v, want empty", st)
	}
	want := appendN(t, s, 2) // the retry creates the same segment name
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st := s.Stats(); st.Recovered != 2 || st.Segments != 1 {
		t.Fatalf("reopened books %+v, want 2 records in 1 segment", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := walkAll(t, dir); len(got) != 2 || got[0].Seq != want[0].Seq {
		t.Fatalf("walked %d records, want the 2 appended after the failed header", len(got))
	}
}

// TestRotationUnderConcurrentAppenders rotates every few records while
// eight goroutines append and the committer flushes: no segment is closed
// under a running Sync (which would surface as a spurious error), the
// sequence stays contiguous, and every segment but the active one is
// sealed.
func TestRotationUnderConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	s, ctl := faultStore(t, dir, Options{SegmentBytes: 4096})
	const appenders, each = 8, 40
	seqs := make([][]uint64, appenders)
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := s.Append(testIncident(g*each + i))
				if err != nil {
					t.Errorf("appender %d: %v", g, err)
					return
				}
				seqs[g] = append(seqs[g], seq)
			}
		}()
	}
	wg.Wait()
	if ctl.closedUnderSync.Load() {
		t.Fatal("a segment was closed while the committer was inside Sync on it")
	}
	var all []uint64
	for _, g := range seqs {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, seq := range all {
		if seq != uint64(i+1) {
			t.Fatalf("sequence numbers not contiguous: position %d holds %d", i, seq)
		}
	}
	st := s.Stats()
	if st.SyncErrors != 0 || st.Appended != appenders*each || st.DurableSeq != st.LastSeq || st.Segments < 10 {
		t.Fatalf("stats %+v, want %d records, no sync error, many segments", st, appenders*each)
	}
	got, scans := walkAll(t, dir)
	if len(got) != appenders*each {
		t.Fatalf("read back %d records, want %d", len(got), appenders*each)
	}
	for i, sc := range scans {
		if last := i == len(scans)-1; sc.Sealed == last || sc.Truncated {
			t.Fatalf("segment %d of %d: %+v", i, len(scans), sc)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWithRecordsInFlight: Close with one record inside a flush and
// two behind it waits the flush out, seals, leaves nothing undecided and
// joins the committer.
func TestCloseWithRecordsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	s, ctl := faultStore(t, dir, Options{})
	gate := make(chan struct{})
	ctl.setGate(gate)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(testIncident(i)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			await(t, ctl.entered, 1, "the committer to enter Sync")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	eventually(t, "Close to mark the store closed", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	if _, err := s.Submit(testIncident(3)); err == nil {
		t.Fatal("Submit succeeded on a closing store")
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LastSeq != 3 || st.DurableSeq != 3 || st.SyncedRecords != 3 {
		t.Fatalf("stats after Close %+v, want all 3 records durable", st)
	}
	if ctl.closedUnderSync.Load() {
		t.Fatal("Close closed the segment under the committer's Sync")
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.WaitDurable(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitDurable(4); err == nil {
		t.Fatal("WaitDurable of a never-submitted record returned nil")
	}
	got, scans := walkAll(t, dir)
	if len(got) != 3 || len(scans) != 1 || !scans[0].Sealed {
		t.Fatalf("read back %d records, scans %+v", len(got), scans)
	}
	eventually(t, "the committer goroutine to exit", func() bool { return runtime.NumGoroutine() <= before })
}

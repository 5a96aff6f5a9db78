// Package anomalystore is the embedded forensic record of the monitor: an
// append-only store of gate-trip incidents that survives daemon restarts
// and crashes. The paper's whole point is trace *reduction* — keep only
// the windows around an anomaly so a human can do forensics later — so
// the evidence must outlive the process that captured it. Each incident
// carries the context windows, the LOF score and gate distance, the model
// that scored it (name + registry generation), the stream id, and wall
// and trace timestamps.
//
// On disk the store is a directory of append-only segment files. Each
// segment is length-prefixed records with a CRC32 per record over the
// existing traceio binary event codec, and size-based rotation:
//
//	segment file (<firstSeq as %016d>.seg):
//
//	  magic   "EASG"            4 bytes
//	  version uvarint           (currently 1)
//	  baseSeq uvarint           sequence number of the first record
//	  records *                 repeated
//	  sealed segments then end with:
//	  0       uvarint           end-of-records marker
//
//	each record:
//
//	  plen    uvarint           payload length (> 0)
//	  crc     uint32 LE         CRC-32 (IEEE) of the payload
//	  payload plen bytes        one encoded Incident
//
// Every read is a sequential scan of a segment, which stops at the
// end-of-records marker: the sparse-index trailer ("EAIX") that older
// versions appended after the marker is skipped unread, so their stores
// read unchanged. A segment that was active when the daemon died has no
// marker; the CRC detects (never panicking on) a truncated tail record.
//
// Durability is a group commit. Submit writes a record into the active
// segment and returns; one committer goroutine, started by Open and
// joined by Close, fsyncs the segment whenever records are written past
// the durable mark — outside the store lock, so writes go on during a
// flush and everything written meanwhile rides the next one — and
// WaitDurable blocks until the flush covering a record has returned.
// Append is Submit followed by WaitDurable: it returns only when the
// record is on stable storage. A record is flushed as soon as the flush
// before it ends, whether or not anyone waits for it. Rotation and Close
// fsync the segment they seal, so a crash loses at most records nobody
// was told are durable — never a previously rotated segment. A write or
// fsync that fails takes its segment out of service as it is (unsealed,
// never rewritten); the next record opens a fresh one.
package anomalystore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

const (
	segMagic   = "EASG"
	segVersion = 1
	segExt     = ".seg"

	// maxRecordSize bounds one incident record when decoding; corrupt
	// length fields must not drive huge allocations.
	maxRecordSize = 16 << 20
	// maxNameLen bounds the stream/model name fields when decoding.
	maxNameLen = 4096
	// maxIncidentWindows bounds the context-window count when decoding.
	maxIncidentWindows = 4096
)

// Record flag bits (the uvarint flags field of each payload). Bit 0 has
// meant "anomalous" since version 1; bits 1 and 2 mark alert-pipeline
// transition records and are mutually exclusive. Old readers ignore the
// new bits; old records never have them set — no format break.
const (
	flagAnomalous     = 1 << 0
	flagAlertFiring   = 1 << 1
	flagAlertResolved = 1 << 2
)

// Alert marker values carried by Incident.Alert / IncidentMeta.Alert.
const (
	alertFiring   = "firing"
	alertResolved = "resolved"
)

// Incident is one persisted gate trip: the window that tripped the gate
// (the last entry of Windows, identified by WindowIndex), the context
// windows preceding it, and everything a forensic replay needs to re-score
// the evidence later.
type Incident struct {
	// Seq is the store-assigned, strictly increasing sequence number.
	Seq uint64
	// Stream is the registry-assigned stream id the trip happened on.
	Stream string
	// Model names the registry model that scored the window; ModelGen is
	// the registry's hot-reload generation at stream registration, so two
	// same-named models from different reloads stay distinguishable.
	Model    string
	ModelGen int64
	// Wall is the wall-clock time the trip was recorded.
	Wall time.Time
	// Score is the LOF the monitor computed; Anomalous reports whether it
	// reached the model's Alpha (the recorded outcome replay compares
	// against). GateDist is the gate distance that tripped LOF scoring.
	Score     float64
	GateDist  float64
	Alpha     float64
	Anomalous bool
	// WindowIndex/Start/End locate the tripped window in stream trace time.
	WindowIndex int
	Start, End  time.Duration
	// Alert marks alert-pipeline transition records: "firing" or
	// "resolved" (empty for ordinary gate-trip incidents). Alert records
	// carry no windows — they are the incident timeline, not evidence —
	// so replay skips them (Principal reports no window).
	Alert string
	// Windows holds the pre-trip context windows followed by the tripped
	// window itself (always last).
	Windows []window.Window
}

// IncidentOf returns the incident of one window's verdict; the caller adds
// the stream, model, wall time and windows.
func IncidentOf(v obs.Verdict) Incident {
	return Incident{
		Score:       v.LOF,
		GateDist:    v.GateDist,
		Alpha:       v.Alpha,
		Anomalous:   v.Anomalous,
		WindowIndex: v.WindowIndex,
		Start:       v.Start,
		End:         v.End,
	}
}

// Verdict returns the verdict the incident records. Every record is a gate
// trip or an alert transition a trip armed, so GateTripped is true; the
// record layout has no gate threshold, so GateThreshold is NaN.
func (inc *Incident) Verdict() obs.Verdict {
	return obs.Verdict{
		WindowIndex:   inc.WindowIndex,
		Start:         inc.Start,
		End:           inc.End,
		GateDist:      inc.GateDist,
		GateThreshold: math.NaN(),
		LOF:           inc.Score,
		Alpha:         inc.Alpha,
		GateTripped:   true,
		Anomalous:     inc.Anomalous,
	}
}

// Principal returns the tripped window itself (the one WindowIndex names,
// by convention the last of Windows) and false when the incident carries
// no windows at all.
func (inc *Incident) Principal() (window.Window, bool) {
	for _, w := range inc.Windows {
		if w.Index == inc.WindowIndex {
			return w, true
		}
	}
	if n := len(inc.Windows); n > 0 {
		return inc.Windows[n-1], true
	}
	return window.Window{}, false
}

// IncidentMeta is the window-free view of an incident served by the
// /anomalies admin endpoint and kept in the store's recent ring.
type IncidentMeta struct {
	Seq      uint64      `json:"seq"`
	Stream   string      `json:"stream"`
	Model    string      `json:"model"`
	ModelGen int64       `json:"model_gen"`
	Wall     string      `json:"wall"`
	Alert    string      `json:"alert,omitempty"`
	Windows  int         `json:"windows"`
	Events   int         `json:"events"`
	Verdict  obs.Verdict `json:"verdict"`
}

// Meta returns the incident's window-free summary.
func (inc *Incident) Meta() IncidentMeta {
	events := 0
	for _, w := range inc.Windows {
		events += len(w.Events)
	}
	return IncidentMeta{
		Seq:      inc.Seq,
		Stream:   inc.Stream,
		Model:    inc.Model,
		ModelGen: inc.ModelGen,
		Wall:     inc.Wall.UTC().Format(time.RFC3339Nano),
		Alert:    inc.Alert,
		Windows:  len(inc.Windows),
		Events:   events,
		Verdict:  inc.Verdict(),
	}
}

// recentMetas is how many incident metas the in-memory recent ring
// retains for the /anomalies listing.
const recentMetas = 256

// Options configures a Store.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 8 MiB). Rotation seals the segment: end marker appended,
	// file fsynced and closed — after that a crash cannot touch it.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// StoreStats is a point-in-time view of the store's books.
type StoreStats struct {
	Dir string `json:"dir"`
	// Appended counts incidents written by this Store since Open (a record
	// whose write failed is not counted); Recovered counts intact records
	// found in pre-existing segments at Open; Incidents is their sum.
	Appended  int64 `json:"appended"`
	Recovered int64 `json:"recovered"`
	Incidents int64 `json:"incidents"`
	// Anomalous counts appended gate-trip incidents (not alert records)
	// whose LOF reached alpha.
	Anomalous int64 `json:"anomalous"`
	// Segments counts segment files (closed + active); Bytes is their
	// total size.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// LastSeq is the sequence number of the last record written;
	// DurableSeq is the last one an fsync has covered (or failed: the
	// mark passes a failed batch, WaitDurable reports it).
	LastSeq    uint64 `json:"last_seq"`
	DurableSeq uint64 `json:"durable_seq"`
	// Syncs counts fsyncs of a segment (the committer's and the one that
	// closes a segment), SyncErrors those that failed, SyncedRecords the
	// records they made durable: SyncedRecords/Syncs is the batching
	// factor.
	Syncs         int64 `json:"syncs"`
	SyncErrors    int64 `json:"sync_errors"`
	SyncedRecords int64 `json:"synced_records"`
}

// segFile is what the store needs of a segment file. Open installs
// *os.File; the tests wrap it to block, fail or cut short a call.
type segFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

func createSegmentFile(path string) (segFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

// failedRange is one batch of sequence numbers that never became durable,
// with the write or fsync error that lost it.
type failedRange struct {
	lo, hi uint64
	err    error
}

// Store is the write side: a single-directory incident log. Submit,
// WaitDurable and Append are safe for concurrent use (every serve stream
// writes into one Store).
type Store struct {
	dir    string
	opts   Options
	create func(path string) (segFile, error)
	// syncLatency times every fsync of a segment.
	syncLatency obs.Histogram
	// done is closed when the committer goroutine has exited.
	done chan struct{}

	mu sync.Mutex
	// work wakes the committer (records pending, or closed); flushed wakes
	// everyone waiting on the committer (durable advanced, a flush ended).
	work, flushed *sync.Cond
	f             segFile
	off           int64
	nextSeq       uint64
	sealedSegs    int
	sealedB       int64
	recovered     int64
	appended      int64
	anoms         int64
	recent        []IncidentMeta
	buf           []byte
	closed        bool

	// The commit protocol. written is the last sequence number whose write
	// succeeded; every record up to durable has been covered by an fsync or
	// is listed in failed; pending counts the records in the active segment
	// between the two, the committer's next batch.
	written uint64        // guarded by mu
	durable uint64        // guarded by mu
	pending int           // guarded by mu
	failed  []failedRange // guarded by mu
	// syncing is set while the committer is inside Sync on f with mu
	// released: f must not be closed under it. poisoned is set once a write
	// or fsync on f has failed: nothing more is written to it.
	syncing    bool  // guarded by mu
	poisoned   bool  // guarded by mu
	syncs      int64 // guarded by mu
	syncErrs   int64 // guarded by mu
	syncedRecs int64 // guarded by mu
}

// Open creates dir if needed, scans any existing segments (recovering the
// sequence counter past every intact record — a truncated tail from a
// crash is skipped, not fatal), starts the committer goroutine and returns
// a Store appending to a fresh segment. The previously active segment is
// left as-is; readers recover its complete records by scanning. Close
// stops the committer.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("anomalystore: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var recovered, sealedB int64
	next := uint64(1)
	for _, seg := range segs {
		// Recovery books what Walk reads: a CRC-clean record that does not
		// decode ends the segment, as it ends Walk's.
		damaged := false
		scan, err := scanSegmentFile(seg.path, func(_ uint64, payload []byte) error {
			if _, err := DecodeIncident(payload); err != nil {
				damaged = true
				return errStopScan
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		recovered += int64(scan.Records)
		sealedB += scan.Bytes
		// A crashed segment may hold no intact records (LastSeq 0); its
		// filename still reserves the sequence number it was opened for.
		next = max(next, scan.LastSeq+1, seg.base+1)
		if damaged {
			// The undecodable record and any CRC-clean one after it still
			// hold their sequence numbers on disk.
			whole, err := scanSegmentFile(seg.path, nil)
			if err != nil {
				return nil, err
			}
			next = max(next, whole.LastSeq+1)
		}
	}
	s := &Store{
		dir: dir, opts: opts, create: createSegmentFile, done: make(chan struct{}),
		nextSeq: next, written: next - 1, durable: next - 1,
		recovered: recovered, sealedSegs: len(segs), sealedB: sealedB,
	}
	s.work, s.flushed = sync.NewCond(&s.mu), sync.NewCond(&s.mu)
	go s.commitLoop()
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Append persists one incident and returns its assigned sequence number
// once the record is on stable storage: Submit, then WaitDurable. The
// caller's Windows slices are encoded immediately and not retained.
func (s *Store) Append(inc Incident) (uint64, error) {
	seq, err := s.Submit(inc)
	if err != nil {
		return 0, err
	}
	if err := s.WaitDurable(seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// Submit assigns the incident its sequence number and writes its record
// into the active segment, rotating first if the segment is full. The
// record is not yet durable when Submit returns: the committer flushes it
// without further prompting, and WaitDurable(seq) reports the outcome. The
// caller's Windows slices are encoded immediately and not retained.
func (s *Store) Submit(inc Incident) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return 0, errors.New("anomalystore: append on closed store")
		}
		if s.f == nil || (!s.poisoned && s.off < s.opts.SegmentBytes) {
			break
		}
		if s.syncing {
			s.flushed.Wait() // a segment is never closed under a running Sync
			continue
		}
		if err := s.closeSegmentLocked(); err != nil {
			return 0, err
		}
	}
	if s.f == nil {
		if err := s.openSegmentLocked(); err != nil {
			return 0, err
		}
	}

	inc.Seq = s.nextSeq
	rec, err := s.encodeRecordLocked(&inc)
	if err != nil {
		return 0, err
	}
	// The number is spent whether or not the write lands: a torn copy of
	// the record may be on disk under it.
	s.nextSeq++
	if _, err := s.f.Write(rec); err != nil {
		// The file position has moved past bytes no reader can use, so a
		// later record in this file would be unreachable. Records already in
		// it are intact and still get their flush.
		s.poisoned = true
		s.failed = appendFailed(s.failed, inc.Seq, inc.Seq, err)
		return 0, fmt.Errorf("anomalystore: %w", err)
	}
	s.off += int64(len(rec))
	s.appended++
	if inc.Anomalous && inc.Alert == "" {
		s.anoms++
	}
	s.recent = append(s.recent, inc.Meta())
	if len(s.recent) > recentMetas {
		s.recent = s.recent[len(s.recent)-recentMetas:]
	}
	s.written = inc.Seq
	s.pending++
	s.work.Signal()
	return inc.Seq, nil
}

// WaitDurable blocks until the record Submit numbered seq is on stable
// storage, and returns the write or fsync error of its batch if it never
// got there — however long after the fact it is asked.
func (s *Store) WaitDurable(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq >= s.nextSeq {
		return fmt.Errorf("anomalystore: record %d was never submitted", seq)
	}
	for {
		// Failed first: a record whose own write failed never comes under
		// the durable mark by itself.
		for _, r := range s.failed {
			if r.lo <= seq && seq <= r.hi {
				return fmt.Errorf("anomalystore: record %d is not durable: %w", seq, r.err)
			}
		}
		if s.durable >= seq {
			return nil
		}
		s.flushed.Wait()
	}
}

// commitLoop is the committer: while records are written past the durable
// mark it fsyncs the active segment with mu released and publishes the
// new mark. It is the only fsync of a segment that stays in service.
func (s *Store) commitLoop() {
	defer close(s.done)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.pending == 0 && !s.closed {
			s.work.Wait()
		}
		if s.pending == 0 {
			return
		}
		f, n, upto := s.f, s.pending, s.written
		s.syncing = true
		s.mu.Unlock()
		err := s.sync(f)
		s.mu.Lock()
		s.syncing = false
		s.flushedLocked(n, upto, err)
	}
}

// sync fsyncs f into the latency histogram.
func (s *Store) sync(f segFile) error {
	t0 := obs.Now()
	err := f.Sync()
	s.syncLatency.ObserveNs(obs.Now() - t0)
	return err
}

// flushedLocked books one fsync of the active segment that covered its n
// oldest pending records, the last of them numbered upto, and wakes the
// waiters. A failed fsync may have dropped the dirty pages, after which a
// later one on the same descriptor that succeeds proves nothing: every
// record in the file that is not yet durable fails with it, and the file
// takes no more writes.
func (s *Store) flushedLocked(n int, upto uint64, err error) {
	s.syncs++
	if err == nil {
		s.syncedRecs, s.pending, s.durable = s.syncedRecs+int64(n), s.pending-n, upto
	} else {
		if s.pending > 0 {
			s.failed = appendFailed(s.failed, s.durable+1, s.written, err)
		}
		s.syncErrs, s.pending, s.durable, s.poisoned = s.syncErrs+1, 0, s.written, true
	}
	s.flushed.Broadcast()
}

// appendFailed records that sequence numbers lo..hi were lost to err,
// extending the previous range when the two are adjacent so a disk that
// keeps failing costs one entry, not one per batch.
func appendFailed(failed []failedRange, lo, hi uint64, err error) []failedRange {
	if n := len(failed); n > 0 && failed[n-1].hi+1 == lo {
		failed[n-1].hi = hi
		return failed
	}
	return append(failed, failedRange{lo: lo, hi: hi, err: err})
}

// SyncLatency returns the distribution of the store's fsync durations.
func (s *Store) SyncLatency() obs.Snapshot { return s.syncLatency.Snapshot() }

// Close seals the active segment (end marker, fsync), stops the committer and
// closes the store. Every record written is durable, or reported failed,
// when it returns. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true // Submit refuses from here on, so the committer runs dry
	for s.syncing {
		s.flushed.Wait()
	}
	var err error
	if s.f != nil {
		err = s.closeSegmentLocked()
	}
	s.work.Signal()
	s.mu.Unlock()
	<-s.done
	return err
}

// Stats returns the store's current books.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Dir:           s.dir,
		Appended:      s.appended,
		Recovered:     s.recovered,
		Incidents:     s.appended + s.recovered,
		Anomalous:     s.anoms,
		Segments:      s.sealedSegs,
		Bytes:         s.sealedB,
		LastSeq:       s.written,
		DurableSeq:    s.durable,
		Syncs:         s.syncs,
		SyncErrors:    s.syncErrs,
		SyncedRecords: s.syncedRecs,
	}
	if s.f != nil {
		st.Segments++
		st.Bytes += s.off
	}
	return st
}

// Recent returns up to n of the most recently appended incident metas,
// newest last. n <= 0 returns the whole ring.
func (s *Store) Recent(n int) []IncidentMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.recent
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	cp := make([]IncidentMeta, len(out))
	copy(cp, out)
	return cp
}

// Get fetches one incident by sequence number, reading from disk by a scan
// of the segment that holds it. Safe to call while appends continue.
func (s *Store) Get(seq uint64) (*Incident, error) {
	s.mu.Lock()
	dir := s.dir
	s.mu.Unlock()
	r, err := OpenReader(dir)
	if err != nil {
		return nil, err
	}
	return r.Get(seq)
}

// openSegmentLocked creates the next segment file and writes its header.
func (s *Store) openSegmentLocked() error {
	base := s.nextSeq
	path := filepath.Join(s.dir, segmentName(base))
	f, err := s.create(path)
	if err != nil {
		return fmt.Errorf("anomalystore: %w", err)
	}
	var head [len(segMagic) + 2*binary.MaxVarintLen64]byte
	n := copy(head[:], segMagic)
	n += binary.PutUvarint(head[n:], segVersion)
	n += binary.PutUvarint(head[n:], base)
	if _, err := f.Write(head[:n]); err != nil {
		_ = f.Close() // the write's error is the one to report
		// Leave no torn header behind: a retry creates the same name.
		_ = os.Remove(path)
		return fmt.Errorf("anomalystore: %w", err)
	}
	s.f = f
	s.off = int64(n)
	// Make the new directory entry itself durable: a rotated-away segment
	// that the directory forgot would be as lost as an unsynced one.
	syncDir(s.dir)
	return nil
}

// closeSegmentLocked takes the active segment out of service: sealed (end
// marker appended) unless a write or fsync on it has
// failed, in which case it is left exactly as it is; fsynced, which also
// covers whatever the committer had not flushed yet; and closed. The
// caller has waited out s.syncing.
func (s *Store) closeSegmentLocked() error {
	f, poisoned := s.f, s.poisoned
	s.f = nil
	var werr, serr error
	if !poisoned {
		_, werr = f.Write([]byte{0}) // uvarint(0): end-of-records marker
		s.off++
	}
	if !poisoned || s.pending > 0 {
		serr = s.sync(f)
		s.flushedLocked(s.pending, s.written, serr)
	}
	cerr := f.Close()
	s.sealedSegs++
	s.sealedB += s.off
	s.off = 0
	s.poisoned = false
	if werr != nil {
		return fmt.Errorf("anomalystore: sealing segment: %w", werr)
	}
	if serr != nil {
		return fmt.Errorf("anomalystore: syncing segment: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("anomalystore: closing segment: %w", cerr)
	}
	return nil
}

// syncDir best-effort fsyncs a directory (durability of create/rename).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func segmentName(base uint64) string {
	return fmt.Sprintf("%016d%s", base, segExt)
}

type segmentFile struct {
	path string
	base uint64
}

// listSegments returns dir's segment files sorted by base sequence.
func listSegments(dir string) ([]segmentFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if err != nil {
		return nil, fmt.Errorf("anomalystore: %w", err)
	}
	segs := make([]segmentFile, 0, len(paths))
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), segExt)
		base, err := strconv.ParseUint(name, 10, 64)
		if err != nil {
			continue // not one of ours
		}
		segs = append(segs, segmentFile{path: p, base: base})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// ---- incident encoding ----

// recHeadMax is the longest record head: the payload-length uvarint and
// the CRC.
const recHeadMax = binary.MaxVarintLen64 + 4

// encodeRecordLocked builds inc's whole on-disk record — payload length,
// CRC, payload — in the store's reused buffer, so it reaches the file in
// one Write. The payload is encoded first, behind room for the longest
// head, and the head is then laid down right before it.
func (s *Store) encodeRecordLocked(inc *Incident) ([]byte, error) {
	var room [recHeadMax]byte
	buf, err := appendIncident(append(s.buf[:0], room[:]...), inc)
	if err != nil {
		return nil, err
	}
	s.buf = buf[:0] // keep the grown buffer
	payload := buf[recHeadMax:]
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("anomalystore: incident record %d bytes exceeds %d", len(payload), maxRecordSize)
	}
	n := binary.PutUvarint(room[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(room[n:], crc32.ChecksumIEEE(payload))
	rec := buf[recHeadMax-(n+4):]
	copy(rec, room[:n+4])
	return rec, nil
}

// appendIncident appends the record-payload encoding of inc to buf.
func appendIncident(buf []byte, inc *Incident) ([]byte, error) {
	buf = binary.AppendUvarint(buf, inc.Seq)
	buf = binary.AppendUvarint(buf, uint64(inc.Wall.UnixNano()))
	buf = appendLenString(buf, inc.Stream)
	buf = appendLenString(buf, inc.Model)
	buf = binary.AppendUvarint(buf, uint64(inc.ModelGen))
	buf = appendFloat64(buf, inc.Score)
	buf = appendFloat64(buf, inc.GateDist)
	buf = appendFloat64(buf, inc.Alpha)
	var flags uint64
	if inc.Anomalous {
		flags |= flagAnomalous
	}
	switch inc.Alert {
	case "":
	case alertFiring:
		flags |= flagAlertFiring
	case alertResolved:
		flags |= flagAlertResolved
	default:
		return nil, fmt.Errorf("anomalystore: unknown alert marker %q", inc.Alert)
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(inc.WindowIndex))
	buf = binary.AppendUvarint(buf, uint64(inc.Start))
	buf = binary.AppendUvarint(buf, uint64(inc.End))
	if len(inc.Windows) > maxIncidentWindows {
		return nil, fmt.Errorf("anomalystore: incident carries %d windows, limit %d", len(inc.Windows), maxIncidentWindows)
	}
	buf = binary.AppendUvarint(buf, uint64(len(inc.Windows)))
	for _, w := range inc.Windows {
		buf = binary.AppendUvarint(buf, uint64(w.Index))
		buf = binary.AppendUvarint(buf, uint64(w.Start))
		buf = binary.AppendUvarint(buf, uint64(w.End))
		// The window's events are one self-contained binary trace (the
		// traceio codec, header included), length-prefixed. The length is
		// known only once the blob is encoded, so encode it in place and
		// then slide it right by the width of its prefix.
		at := len(buf)
		var err error
		if buf, err = traceio.AppendBinary(buf, w.Events); err != nil {
			return nil, fmt.Errorf("anomalystore: encoding window events: %w", err)
		}
		var lenb [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lenb[:], uint64(len(buf)-at))
		buf = append(buf, lenb[:n]...)
		copy(buf[at+n:], buf[at:])
		copy(buf[at:], lenb[:n])
	}
	return buf, nil
}

func appendLenString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat64(buf []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(buf, b[:]...)
}

// decoder is a bounds-checked cursor over one record payload. Every length
// field is validated against the remaining bytes before any allocation, so
// corrupt input fails cleanly instead of panicking or ballooning memory.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("anomalystore: decoding %s: %w", what, io.ErrUnexpectedEOF)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes(what string, n uint64, max int) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(max) || n > uint64(len(d.b)-d.off) {
		d.fail(what)
		return nil
	}
	out := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return out
}

func (d *decoder) float64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// DecodeIncident decodes one record payload. Arbitrary (corrupt) input
// must yield an error, never a panic — the fuzz target hammers this.
func DecodeIncident(payload []byte) (*Incident, error) {
	d := &decoder{b: payload}
	inc := &Incident{}
	inc.Seq = d.uvarint("seq")
	inc.Wall = time.Unix(0, int64(d.uvarint("wall"))).UTC()
	inc.Stream = string(d.bytes("stream", d.uvarint("stream length"), maxNameLen))
	inc.Model = string(d.bytes("model", d.uvarint("model length"), maxNameLen))
	inc.ModelGen = int64(d.uvarint("model generation"))
	inc.Score = d.float64("score")
	inc.GateDist = d.float64("gate distance")
	inc.Alpha = d.float64("alpha")
	flags := d.uvarint("flags")
	inc.Anomalous = flags&flagAnomalous != 0
	switch flags & (flagAlertFiring | flagAlertResolved) {
	case 0:
	case flagAlertFiring:
		inc.Alert = alertFiring
	case flagAlertResolved:
		inc.Alert = alertResolved
	default:
		return nil, fmt.Errorf("anomalystore: record flags %#x set both alert bits", flags)
	}
	inc.WindowIndex = int(d.uvarint("window index"))
	inc.Start = time.Duration(d.uvarint("start"))
	inc.End = time.Duration(d.uvarint("end"))
	nw := d.uvarint("window count")
	if d.err != nil {
		return nil, d.err
	}
	if nw > maxIncidentWindows || nw > uint64(len(payload)) {
		return nil, fmt.Errorf("anomalystore: window count %d exceeds limit", nw)
	}
	inc.Windows = make([]window.Window, 0, nw)
	for i := uint64(0); i < nw; i++ {
		var w window.Window
		w.Index = int(d.uvarint("window index"))
		w.Start = time.Duration(d.uvarint("window start"))
		w.End = time.Duration(d.uvarint("window end"))
		blob := d.bytes("window events", d.uvarint("window events length"), maxRecordSize)
		if d.err != nil {
			return nil, d.err
		}
		evs, err := decodeEvents(blob)
		if err != nil {
			return nil, err
		}
		w.Events = evs
		inc.Windows = append(inc.Windows, w)
	}
	return inc, d.err
}

func decodeEvents(blob []byte) ([]trace.Event, error) {
	br, err := traceio.NewBinaryReader(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("anomalystore: decoding window events: %w", err)
	}
	evs, err := trace.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("anomalystore: decoding window events: %w", err)
	}
	return evs, nil
}

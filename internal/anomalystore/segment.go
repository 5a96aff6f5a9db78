package anomalystore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// SegmentScan summarises one pass over a segment's records.
type SegmentScan struct {
	// Version is the decoded format version.
	Version int
	// Records counts intact records (length, CRC, and decode all valid).
	Records int
	// FirstSeq/LastSeq are the sequence range of intact records (0/0 when
	// the segment holds none).
	FirstSeq, LastSeq uint64
	// Sealed reports whether the end-of-records marker was reached; a
	// segment that was active at crash time is not sealed.
	Sealed bool
	// Truncated reports that the scan stopped at a torn or corrupt tail —
	// a partial record, a CRC mismatch, or a payload that fails to decode.
	// Everything counted in Records precedes the damage.
	Truncated bool
	// Bytes is the size of what the scan found intact: the header and
	// every intact record, plus — when Sealed — the end marker and
	// whatever follows it (the sparse-index trailer older versions wrote),
	// i.e. the whole file. A torn or corrupt tail is not counted.
	Bytes int64
}

// errStopScan lets a ScanSegment callback end the walk early without
// flagging the segment as damaged.
var errStopScan = errors.New("anomalystore: stop scan")

// ScanSegment reads segment bytes sequentially, invoking fn for every
// intact record (seq is decoded from the payload; the payload slice is
// only valid during the call). Corrupt or truncated input — including a
// segment cut anywhere by a crash, its header included — terminates the
// scan cleanly with Truncated set; it is never an error and must never
// panic. An error is returned only for a bad magic or version, a failing
// reader, or an fn failure.
func ScanSegment(r io.Reader, fn func(seq uint64, payload []byte) error) (SegmentScan, error) {
	var scan SegmentScan
	cr := &countReader{r: r}
	br := bufio.NewReaderSize(cr, 1<<16)
	consumed := func() int64 { return cr.n - int64(br.Buffered()) }

	// A strict prefix of a header (zero bytes included) is a crash between
	// create and the header write: a segment that holds no records.
	head := make([]byte, len(segMagic))
	n, err := io.ReadFull(br, head)
	if string(head[:n]) != segMagic[:n] {
		return scan, fmt.Errorf("anomalystore: bad magic, not an anomaly segment")
	}
	var v uint64
	if err == nil {
		if v, err = binary.ReadUvarint(br); err == nil && v != segVersion {
			return scan, fmt.Errorf("anomalystore: unsupported segment version %d", v)
		}
	}
	if err == nil {
		_, err = binary.ReadUvarint(br) // baseSeq
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		scan.Truncated = true
		return scan, nil
	}
	if err != nil {
		return scan, fmt.Errorf("anomalystore: reading segment header: %w", err)
	}
	scan.Version = int(v)
	scan.Bytes = consumed()

	var payload []byte
	for {
		plen, err := binary.ReadUvarint(br)
		if err == io.EOF {
			// EOF exactly at a record boundary: an unsealed (crashed)
			// segment whose last record made it out whole.
			return scan, nil
		}
		if err != nil {
			scan.Truncated = true
			return scan, nil
		}
		if plen == 0 {
			scan.Sealed = true
			// Skip what follows the marker: nothing in files this version
			// writes, the sparse-index trailer in older ones.
			if _, err := io.Copy(io.Discard, br); err != nil {
				return scan, fmt.Errorf("anomalystore: reading segment tail: %w", err)
			}
			scan.Bytes = consumed()
			return scan, nil
		}
		if plen > maxRecordSize {
			scan.Truncated = true
			return scan, nil
		}
		var crcb [4]byte
		if _, err := io.ReadFull(br, crcb[:]); err != nil {
			scan.Truncated = true
			return scan, nil
		}
		want := binary.LittleEndian.Uint32(crcb[:])
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			scan.Truncated = true
			return scan, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			scan.Truncated = true
			return scan, nil
		}
		seq, n := binary.Uvarint(payload)
		if n <= 0 {
			scan.Truncated = true
			return scan, nil
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
				if err == errStopScan {
					return scan, nil
				}
				return scan, err
			}
		}
		if scan.Records == 0 {
			scan.FirstSeq = seq
		}
		scan.LastSeq = seq
		scan.Records++
		scan.Bytes = consumed()
	}
}

// countReader counts bytes read from the underlying reader so SegmentScan
// can report consumption despite bufio read-ahead.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scanSegmentFile runs ScanSegment over one file.
func scanSegmentFile(path string, fn func(seq uint64, payload []byte) error) (SegmentScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return SegmentScan{}, fmt.Errorf("anomalystore: %w", err)
	}
	defer f.Close()
	scan, err := ScanSegment(f, fn)
	if err != nil {
		return scan, fmt.Errorf("anomalystore: segment %s: %w", path, err)
	}
	return scan, nil
}

// Reader is the read side of a store directory: it walks every segment in
// sequence order and fetches single incidents by scanning the segment
// that holds them. A Reader takes no lock on the directory; reading while
// a Store appends is safe (it simply stops at the current tail).
type Reader struct {
	dir  string
	segs []segmentFile
}

// OpenReader opens a store directory for reading.
func OpenReader(dir string) (*Reader, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	return &Reader{dir: dir, segs: segs}, nil
}

// Segments returns the number of segment files.
func (r *Reader) Segments() int { return len(r.segs) }

// Walk decodes every intact incident across all segments in sequence
// order and invokes fn. It returns the per-segment scans (damage is
// reported there, not as an error). fn returning an error aborts the walk.
func (r *Reader) Walk(fn func(*Incident) error) ([]SegmentScan, error) {
	scans := make([]SegmentScan, 0, len(r.segs))
	for _, seg := range r.segs {
		damaged := false
		scan, err := scanSegmentFile(seg.path, func(seq uint64, payload []byte) error {
			inc, derr := DecodeIncident(payload)
			if derr != nil {
				// A CRC-clean payload that fails decode is tail damage in
				// disguise (e.g. a crashed write of a corrupt buffer) —
				// stop this segment like any other truncation.
				damaged = true
				return errStopScan
			}
			return fn(inc)
		})
		if err != nil {
			return scans, err
		}
		scan.Truncated = scan.Truncated || damaged
		scans = append(scans, scan)
	}
	return scans, nil
}

// ErrNotFound is returned by Get for a sequence number not present in the
// store.
var ErrNotFound = errors.New("anomalystore: incident not found")

// Get fetches one incident by sequence number, scanning the segment that
// holds it up to the record.
func (r *Reader) Get(seq uint64) (*Incident, error) {
	// Segments are named by base sequence: the owner is the last segment
	// whose base is <= seq.
	for i := len(r.segs) - 1; i >= 0; i-- {
		seg := r.segs[i]
		if seg.base > seq {
			continue
		}
		var found *Incident
		_, err := scanSegmentFile(seg.path, func(got uint64, payload []byte) error {
			if got != seq {
				return nil
			}
			inc, derr := DecodeIncident(payload)
			if derr != nil {
				return derr
			}
			found = inc
			return errStopScan
		})
		if err != nil {
			return nil, err
		}
		if found == nil {
			return nil, ErrNotFound
		}
		return found, nil
	}
	return nil, ErrNotFound
}

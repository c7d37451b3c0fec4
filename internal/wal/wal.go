// Package wal implements the engine's write-ahead update log: an
// append-only, CRC-32C-framed record log split across rotating segment
// files. POST /update acks after a record lands here (microseconds)
// instead of after the delta's refactorization (milliseconds); a
// background compactor later drains the logged batches through the
// incremental index update path and truncates the segments it has made
// durable elsewhere.
//
// Each segment file starts with an 8-byte magic and carries a sequence
// of length-prefixed records:
//
//	[4 bytes payload length LE] [4 bytes CRC-32C(payload) LE] [payload]
//	payload = [8 bytes sequence number LE] [record body]
//
// Sequence numbers are assigned by Append, strictly increasing by one
// across the whole log. Segment files are named wal-<first seq, 16 hex
// digits>.log, so lexical order is replay order and the first sequence
// number of a segment is known without opening it.
//
// Durability is a policy choice (Options.Sync): SyncAlways fsyncs
// before every Append returns, SyncInterval (the default) acks from the
// OS page cache and fsyncs on a short timer — bounding loss on power
// failure to the last interval while keeping acks at write() cost — and
// SyncNone leaves flushing entirely to the OS. Process crashes lose
// nothing under any policy; only power loss can eat an unsynced tail.
//
// Recovery (Open) scans every segment, verifies framing and CRCs, and
// truncates a torn tail: the first invalid record ends the log — the
// file is truncated at the last whole record and any later segments are
// quarantined (renamed *.corrupt), never silently replayed past a gap.
// Replay then hands the surviving records back in order.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when Append data reaches stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) acknowledges appends from the OS page
	// cache and fsyncs on the Options.SyncEvery timer: acks cost one
	// write(), and at most the last interval's records are exposed to
	// power loss (process crashes lose nothing).
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before every Append returns: full durability,
	// acks pay the device sync latency.
	SyncAlways
	// SyncNone never fsyncs; the OS flushes when it pleases.
	SyncNone
)

// ParseSyncPolicy maps the -wal-fsync flag values onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf(`wal: unknown fsync policy %q (want "always", "interval" or "none")`, s)
}

// String names the policy as ParseSyncPolicy spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return "interval"
}

// Options configures a Log.
type Options struct {
	// Sync is the durability policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval flush period (default 2ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB). Rotation bounds what one truncation can reclaim
	// and what one torn tail can cost.
	SegmentBytes int64
}

// DefaultSyncEvery is the SyncInterval flush period when Options leaves
// it zero.
const DefaultSyncEvery = 2 * time.Millisecond

// DefaultSegmentBytes is the rotation threshold when Options leaves it
// zero.
const DefaultSegmentBytes = 4 << 20

// segMagic opens every segment file. The trailing digit versions the
// framing; readers reject anything else.
const segMagic = "KDWAL\x00\x001"

// maxRecordBytes bounds one record's payload: far above any delta the
// HTTP layer accepts (its body cap is 8 MiB), low enough that a corrupt
// length prefix cannot drive a huge allocation.
const maxRecordBytes = 64 << 20

// frameHeaderLen is the per-record framing overhead: length + CRC.
const frameHeaderLen = 8

// payloadOverhead is the sequence number inside each payload.
const payloadOverhead = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	LastSeq      uint64 // highest sequence number ever appended (or recovered)
	Appends      int64  // records appended this process
	Fsyncs       int64  // fsync calls issued
	Rotations    int64  // segment rotations
	Segments     int    // live segment files, active included
	Bytes        int64  // bytes across live segment files
	Truncations  int64  // TruncateThrough calls that deleted at least one segment
	SegmentsFree int64  // segment files deleted by truncation

	// Recovery outcome of Open.
	RecoveredRecords int   // valid records found on open
	TornBytesDropped int64 // bytes cut off the last valid segment's tail
	SegmentsCorrupt  int   // later segments quarantined (*.corrupt) after a bad record
}

// segment is one live log file.
type segment struct {
	name  string
	first uint64 // sequence number of its first record (from the file name)
	last  uint64 // highest record it holds; first-1 when empty
	size  int64
}

// Log is an open write-ahead log directory. All methods are safe for
// concurrent use; Append serialises internally.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	active   *os.File
	segments []segment // ascending by first; the last entry is active
	lastSeq  uint64
	dirty    bool  // unsynced appends outstanding (SyncInterval)
	syncErr  error // sticky first fsync/write failure: the log is dead
	closed   bool
	scratch  []byte

	stats Stats

	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the log directory, recovers its
// segments — verifying every record, truncating a torn tail and
// quarantining anything after it — and positions the log for appending.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = DefaultSyncEvery
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating log directory: %w", err)
	}
	l := &Log{dir: dir, opt: opt, stop: make(chan struct{}), done: make(chan struct{})}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		if l.active != nil {
			l.active.Close()
		}
		return nil, err
	}
	if opt.Sync == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.done)
	}
	return l, nil
}

// segmentName formats the file name of a segment whose first record
// will carry seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("wal-%016x.log", seq)
}

// parseSegmentName extracts the first sequence number from a segment
// file name, reporting ok=false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hexPart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// recover scans the directory's segments in order, validating records
// and truncating/quarantining at the first corruption.
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: reading log directory: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segment{name: e.Name(), first: first})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].first < segs[b].first })

	broken := -1 // index of the first segment with a corruption
	for i := range segs {
		s := &segs[i]
		res, err := scanSegment(filepath.Join(l.dir, s.name), s.first)
		if err != nil {
			return err
		}
		s.size = res.validBytes
		s.last = res.lastSeq
		l.stats.RecoveredRecords += res.records
		if res.tornBytes > 0 {
			// Torn or corrupt tail: cut the file back to its last whole
			// record. Everything after this point — in this file and any
			// later segment — is unreachable past the gap.
			if err := os.Truncate(filepath.Join(l.dir, s.name), res.validBytes); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", s.name, err)
			}
			l.stats.TornBytesDropped += res.tornBytes
			broken = i
			break
		}
		if i > 0 && s.first != segs[i-1].last+1 {
			// A hole between segments (a deleted or renamed file): replaying
			// across it would silently skip acknowledged updates.
			return fmt.Errorf("wal: segment %s starts at seq %d, previous ends at %d", s.name, s.first, segs[i-1].last)
		}
	}
	if broken >= 0 {
		for _, s := range segs[broken+1:] {
			old := filepath.Join(l.dir, s.name)
			if err := os.Rename(old, old+".corrupt"); err != nil {
				return fmt.Errorf("wal: quarantining %s: %w", s.name, err)
			}
			l.stats.SegmentsCorrupt++
		}
		segs = segs[:broken+1]
	}
	l.segments = segs
	l.lastSeq = 0
	if n := len(segs); n > 0 {
		l.lastSeq = segs[n-1].last
	}
	return nil
}

// scanResult is one segment's validation outcome.
type scanResult struct {
	records    int
	lastSeq    uint64 // last valid record's seq; first-1 when none
	validBytes int64  // offset of the first invalid byte (file length when clean)
	tornBytes  int64  // bytes past validBytes (0 when clean)
}

// scanSegment walks one segment file record by record, stopping at the
// first invalid frame. A file too short for its magic, or carrying the
// wrong magic, counts as fully torn (validBytes 0) — recovery truncates
// it to nothing rather than guessing at foreign bytes.
func scanSegment(path string, first uint64) (scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: reading %s: %w", filepath.Base(path), err)
	}
	res := scanResult{lastSeq: first - 1}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		res.tornBytes = int64(len(data))
		return res, nil
	}
	off := int64(len(segMagic))
	want := first
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break // clean end
		}
		if len(rest) < frameHeaderLen {
			break // torn header
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if length < payloadOverhead || length > maxRecordBytes || int(length) > len(rest)-frameHeaderLen {
			break // impossible or torn payload
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(length)]
		if crc32.Checksum(payload, castagnoli) != crc {
			break // corrupt payload
		}
		seq := binary.LittleEndian.Uint64(payload[:8])
		if seq != want {
			break // sequence discontinuity: do not replay past it
		}
		res.records++
		res.lastSeq = seq
		want = seq + 1
		off += frameHeaderLen + int64(length)
	}
	res.validBytes = off
	res.tornBytes = int64(len(data)) - off
	return res, nil
}

// openActive opens the last segment for appending, creating a fresh one
// when the directory is empty.
func (l *Log) openActive() error {
	if len(l.segments) == 0 {
		return l.newSegmentLocked(l.lastSeq + 1)
	}
	s := &l.segments[len(l.segments)-1]
	f, err := os.OpenFile(filepath.Join(l.dir, s.name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening active segment: %w", err)
	}
	if s.size < int64(len(segMagic)) {
		// Recovery truncated the segment to nothing (its magic itself was
		// torn or foreign); restore the header or later appends would be
		// unrecoverable.
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return fmt.Errorf("wal: rewriting segment magic: %w", err)
		}
		s.size = int64(len(segMagic))
	}
	l.active = f
	return nil
}

// newSegmentLocked creates and activates a fresh segment whose first
// record will carry seq, then fsyncs the directory: a record acked into
// the segment is durable only once its directory entry is, so a failed
// directory sync is returned and the caller makes it sticky. Callers
// hold l.mu (or are inside Open).
func (l *Log) newSegmentLocked(seq uint64) error {
	name := segmentName(seq)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment magic: %w", err)
	}
	l.active = f
	l.segments = append(l.segments, segment{name: name, first: seq, last: seq - 1, size: int64(len(segMagic))})
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: syncing log directory: %w", err)
	}
	return nil
}

// rotateLocked seals the active segment and starts a new one.
func (l *Log) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.stats.Fsyncs++
	if err := l.active.Close(); err != nil {
		return err
	}
	l.stats.Rotations++
	return l.newSegmentLocked(l.lastSeq + 1)
}

// Append frames body as the next record, writes it to the active
// segment and returns its sequence number. Durability at return time
// follows Options.Sync. A write or sync failure is sticky: the log
// refuses every later append, because acknowledging past a hole would
// break replay's continuity guarantee.
func (l *Log) Append(body []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.syncErr != nil {
		return 0, fmt.Errorf("wal: log failed earlier: %w", l.syncErr)
	}
	if int64(len(body))+payloadOverhead > maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(body), maxRecordBytes)
	}
	s := &l.segments[len(l.segments)-1]
	if s.size > int64(len(segMagic)) && s.size+frameHeaderLen+payloadOverhead+int64(len(body)) > l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.syncErr = err
			return 0, fmt.Errorf("wal: rotating segment: %w", err)
		}
		s = &l.segments[len(l.segments)-1]
	}
	seq := l.lastSeq + 1
	frame := l.scratch[:0]
	frame = binary.LittleEndian.AppendUint32(frame, uint32(payloadOverhead+len(body)))
	frame = append(frame, 0, 0, 0, 0) // CRC back-filled below
	frame = binary.LittleEndian.AppendUint64(frame, seq)
	frame = append(frame, body...)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameHeaderLen:], castagnoli))
	l.scratch = frame
	if _, err := l.active.Write(frame); err != nil {
		l.syncErr = err
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	s.size += int64(len(frame))
	s.last = seq
	l.lastSeq = seq
	l.stats.Appends++
	switch l.opt.Sync {
	case SyncAlways:
		if err := l.active.Sync(); err != nil {
			l.syncErr = err
			return 0, fmt.Errorf("wal: syncing record: %w", err)
		}
		l.stats.Fsyncs++
	case SyncInterval:
		l.dirty = true
	}
	return seq, nil
}

// syncLoop is the SyncInterval flusher: every SyncEvery it fsyncs the
// active segment if appends landed since the last flush.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && l.syncErr == nil && !l.closed {
				if err := l.active.Sync(); err != nil {
					l.syncErr = err
				} else {
					l.stats.Fsyncs++
					l.dirty = false
				}
			}
			l.mu.Unlock()
		}
	}
}

// Replay invokes fn for every recovered record with seq > after, in
// sequence order. It re-reads the segment files, so it reflects exactly
// what a restart would see; call it before appending in earnest (the
// log holds its lock for the duration).
//
//kdash:deterministic
func (l *Log) Replay(after uint64, fn func(seq uint64, body []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segments {
		if s.last <= after || s.last < s.first {
			continue
		}
		data, err := os.ReadFile(filepath.Join(l.dir, s.name))
		if err != nil {
			return fmt.Errorf("wal: replaying %s: %w", s.name, err)
		}
		off := int64(len(segMagic))
		for off < int64(len(data)) {
			rest := data[off:]
			if len(rest) < frameHeaderLen {
				break
			}
			length := binary.LittleEndian.Uint32(rest[0:4])
			if int(length) > len(rest)-frameHeaderLen {
				break
			}
			payload := rest[frameHeaderLen : frameHeaderLen+int(length)]
			seq := binary.LittleEndian.Uint64(payload[:8])
			if seq > after {
				if err := fn(seq, payload[8:]); err != nil {
					return err
				}
			}
			off += frameHeaderLen + int64(length)
		}
	}
	return nil
}

// TruncateThrough deletes every segment whose records are all <= seq —
// they have been made durable elsewhere (compacted into a published
// epoch, or persisted in a snapshot). When the active segment itself is
// fully covered it is sealed and replaced by a fresh one first, so the
// log directory shrinks back to one near-empty file after a full
// compaction. A failed directory sync after the deletions is returned;
// it does not stop appends, since the deleted records are durable
// elsewhere and no acked one depends on the removed entries.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if n := len(l.segments); l.segments[n-1].last <= seq && l.segments[n-1].size > int64(len(segMagic)) {
		if err := l.rotateLocked(); err != nil {
			l.syncErr = err
			return fmt.Errorf("wal: rotating before truncation: %w", err)
		}
	}
	kept := l.segments[:0]
	deleted := false
	for i, s := range l.segments {
		// Never delete the active (final) segment.
		if i == len(l.segments)-1 || s.last > seq {
			kept = append(kept, s)
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, s.name)); err != nil {
			return fmt.Errorf("wal: deleting compacted segment: %w", err)
		}
		l.stats.SegmentsFree++
		deleted = true
	}
	l.segments = kept
	if deleted {
		l.stats.Truncations++
		if err := syncDir(l.dir); err != nil {
			return fmt.Errorf("wal: syncing log directory after truncation: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs directory dir so the segment files created or deleted
// in it are themselves durable; a test swaps it to fail. Windows cannot
// fsync a directory handle; NTFS journals its entries itself.
var syncDir = func(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LastSeq reports the highest sequence number appended or recovered.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.LastSeq = l.lastSeq
	st.Segments = len(l.segments)
	st.Bytes = 0
	for _, s := range l.segments {
		st.Bytes += s.size
	}
	return st
}

// Close flushes and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.active != nil {
		if l.dirty && l.syncErr == nil {
			if serr := l.active.Sync(); serr != nil {
				err = serr
			} else {
				l.stats.Fsyncs++
			}
		}
		if cerr := l.active.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	return err
}

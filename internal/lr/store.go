package lr

import (
	"sync"

	"repro/internal/relstore"
	"repro/internal/value"
)

// DB wraps the relational store with the Linear Road schema: the
// `segmentStatistics` table (per-segment, per-minute car counts and average
// speeds, from which LAV derives) and the `accidentInSegment` table of
// recently detected accidents — the two tables the paper's workflow keeps
// in its relational database.
type DB struct {
	store     *relstore.Store
	segStats  *relstore.Table
	accidents *relstore.Table
	statsMu   sync.Mutex // serialises segStats read-modify-writes
}

// LAVWindowMinutes is the "Latest Average Velocity" horizon: the average of
// the per-minute average speeds over the past five minutes.
const LAVWindowMinutes = 5

// AccidentFreshnessSeconds bounds how old a recorded accident may be to
// affect tolls and alerts (the paper's `ais.timestamp >= now-60` predicate).
const AccidentFreshnessSeconds = 60

// NewDB creates the schema.
func NewDB() *DB {
	s := relstore.New()
	seg := s.MustCreateTable("segmentStatistics", "xway", "dir", "seg", "minute", "avgSpeed", "cars")
	if err := seg.CreateIndex("xway", "dir", "seg", "minute"); err != nil {
		panic(err)
	}
	acc := s.MustCreateTable("accidentInSegment", "xway", "dir", "segment", "pos", "timestamp")
	if err := acc.CreateIndex("xway", "dir"); err != nil {
		panic(err)
	}
	return &DB{store: s, segStats: seg, accidents: acc}
}

// Store exposes the underlying relational store.
func (db *DB) Store() *relstore.Store { return db.store }

func segKey(xway, dir, seg int, minute int64) relstore.Row {
	return value.NewRecord(
		"xway", value.Int(int64(xway)),
		"dir", value.Int(int64(dir)),
		"seg", value.Int(int64(seg)),
		"minute", value.Int(minute),
	)
}

// segKeyCols and accKeyCols are the indexed key columns of the two
// tables. Lookups append into a stack buffer: a segment-minute has one
// row, and a highway direction holds the accidents of the last few
// minutes (Expire keeps 300 s): at most 6 in full 600 s runs at seeds 1, 7
// and 42, so 16 leaves room. A probe allocates only its key record.
var (
	segKeyCols = []string{"xway", "dir", "seg", "minute"}
	accKeyCols = []string{"xway", "dir"}
)

// RecordMinuteAvg upserts the average speed of a segment-minute.
func (db *DB) RecordMinuteAvg(xway, dir, seg int, minute int64, avg float64) {
	db.recordStat(xway, dir, seg, minute, "avgSpeed", value.Float(avg))
}

// RecordCarCount upserts the distinct-car count of a segment-minute.
func (db *DB) RecordCarCount(xway, dir, seg int, minute int64, n int) {
	db.recordStat(xway, dir, seg, minute, "cars", value.Int(int64(n)))
}

// recordStat sets one statistics column of a segment-minute's row,
// creating the row with both columns unset (-1) on first sight. The read
// and the write are one critical section under statsMu: the two statistics
// actors run concurrently on the thread-based and parallel directors, and
// two interleaved read-modify-writes would lose a column or insert the row
// twice.
func (db *DB) recordStat(xway, dir, seg int, minute int64, col string, v value.Value) {
	key := segKey(xway, dir, seg, minute)
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	var buf [4]relstore.Row
	var row relstore.Row
	if rows := db.segStats.Lookup(buf[:0], segKeyCols, key); len(rows) > 0 {
		row = rows[0]
	} else {
		row = key.With("avgSpeed", value.Float(-1)).With("cars", value.Int(-1))
	}
	if err := db.segStats.Upsert(segKeyCols, row.With(col, v)); err != nil {
		panic(err) // the row carries every column of the schema NewDB creates
	}
}

// LAV returns the Latest Average Velocity for a segment at the given
// minute: the mean of the per-minute average speeds over minutes
// [minute-5, minute-1]. ok is false when no history exists yet.
func (db *DB) LAV(xway, dir, seg int, minute int64) (float64, bool) {
	var buf [4]relstore.Row
	sum, n := 0.0, 0
	for m := minute - LAVWindowMinutes; m < minute; m++ {
		for _, r := range db.segStats.Lookup(buf[:0], segKeyCols, segKey(xway, dir, seg, m)) {
			if v := r.Float("avgSpeed"); v >= 0 {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// CarCount returns the distinct-car count of the previous minute.
func (db *DB) CarCount(xway, dir, seg int, minute int64) (int, bool) {
	var buf [4]relstore.Row
	for _, r := range db.segStats.Lookup(buf[:0], segKeyCols, segKey(xway, dir, seg, minute-1)) {
		if v := r.Int("cars"); v >= 0 {
			return int(v), true
		}
	}
	return 0, false
}

// InsertAccident records a detected accident.
func (db *DB) InsertAccident(xway, dir, seg, pos int, tsSec int64) {
	db.accidents.Insert(value.NewRecord(
		"xway", value.Int(int64(xway)),
		"dir", value.Int(int64(dir)),
		"segment", value.Int(int64(seg)),
		"pos", value.Int(int64(pos)),
		"timestamp", value.Int(tsSec),
	))
}

// AccidentAhead reports whether a fresh accident lies within
// AccidentScanSegments downstream of seg for a car travelling in dir — the
// paper's notification predicate:
//
//	(dir=1 AND seg <= ais.segment+4 AND seg >= ais.segment) OR
//	(dir=0 AND seg >= ais.segment-4 AND seg <= ais.segment)
func (db *DB) AccidentAhead(xway, dir, seg int, nowSec int64) (int, bool) {
	key := value.NewRecord("xway", value.Int(int64(xway)), "dir", value.Int(int64(dir)))
	var buf [16]relstore.Row
	for _, r := range db.accidents.Lookup(buf[:0], accKeyCols, key) {
		if r.Int("timestamp") < nowSec-AccidentFreshnessSeconds {
			continue
		}
		as := int(r.Int("segment"))
		inRange := false
		if dir == 1 {
			inRange = seg <= as+AccidentScanSegments && seg >= as
		} else {
			inRange = seg >= as-AccidentScanSegments && seg <= as
		}
		if inRange {
			return as, true
		}
	}
	return 0, false
}

// HasFreshAccidentAt reports whether a fresh accident is already recorded
// at the exact position.
func (db *DB) HasFreshAccidentAt(xway, dir, pos int, nowSec int64) bool {
	key := value.NewRecord("xway", value.Int(int64(xway)), "dir", value.Int(int64(dir)))
	var buf [16]relstore.Row
	for _, r := range db.accidents.Lookup(buf[:0], accKeyCols, key) {
		if r.Int("pos") == int64(pos) && r.Int("timestamp") >= nowSec-AccidentFreshnessSeconds {
			return true
		}
	}
	return false
}

// UpsertAccident records a detection, refreshing the timestamp of an
// existing row at the same position instead of accumulating duplicates.
// Re-detections arrive with every further identical report, so an ongoing
// accident stays continuously fresh — skipping (rather than refreshing)
// would open a coverage hole between a row going stale and the next
// insertion.
func (db *DB) UpsertAccident(xway, dir, seg, pos int, tsSec int64) {
	key := value.NewRecord("xway", value.Int(int64(xway)), "dir", value.Int(int64(dir)))
	var buf [16]relstore.Row
	for _, r := range db.accidents.Lookup(buf[:0], accKeyCols, key) {
		if r.Int("pos") != int64(pos) {
			continue
		}
		if r.Int("timestamp") >= tsSec {
			return // already at least as fresh
		}
		db.accidents.Update(func(row relstore.Row) bool {
			return row.Int("xway") == int64(xway) && row.Int("dir") == int64(dir) &&
				row.Int("pos") == int64(pos)
		}, func(row relstore.Row) relstore.Row {
			return row.With("timestamp", value.Int(tsSec))
		})
		return
	}
	db.InsertAccident(xway, dir, seg, pos, tsSec)
}

// Toll evaluates the paper's toll query for a car entering seg at nowSec:
//
//	CASE WHEN LAV < 40 AND numOfCars > 50 AND (no fresh accident within 4
//	segments downstream) THEN 2*POWER(numOfCars-50, 2) ELSE 0 END
//
// using the statistics of the previous minute.
func (db *DB) Toll(xway, dir, seg int, nowSec int64) float64 {
	minute := nowSec / 60
	lav, haveLAV := db.LAV(xway, dir, seg, minute)
	cars, haveCars := db.CarCount(xway, dir, seg, minute)
	if !haveLAV || !haveCars {
		return 0
	}
	if lav >= 40 || cars <= 50 {
		return 0
	}
	if _, accident := db.AccidentAhead(xway, dir, seg, nowSec); accident {
		return 0
	}
	d := float64(cars - 50)
	return 2 * d * d
}

// Expire removes accidents older than keepSec and segment statistics older
// than keepMinutes; the long-running workflow calls it periodically to
// bound store growth.
func (db *DB) Expire(nowSec int64, keepSec int64, keepMinutes int64) {
	db.accidents.Delete(func(r relstore.Row) bool {
		return r.Int("timestamp") < nowSec-keepSec
	})
	minute := nowSec / 60
	db.segStats.Delete(func(r relstore.Row) bool {
		return r.Int("minute") < minute-keepMinutes
	})
	db.accidents.Compact()
	db.segStats.Compact()
}

// AccidentCount returns how many accidents are currently recorded.
func (db *DB) AccidentCount() int { return db.accidents.Len() }

// Package relstore is the in-memory relational store backing the Linear
// Road workflow. The paper's implementation "requires the support of a
// relational database to store statistics on road congestion as well as the
// recent accidents detected"; this package substitutes a thread-safe
// in-memory engine with tables, optional hash indexes and predicate
// queries — sufficient for the two tables and the toll SELECT the
// benchmark uses, while remaining a general-purpose building block.
package relstore

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/value"
)

// Row is one table row.
type Row = value.Record

// Predicate filters rows.
type Predicate func(Row) bool

// Table is a named relation with a fixed column set.
type Table struct {
	name string
	cols []string

	mu      sync.RWMutex
	rows    []Row
	indexes []*index
}

// index is a hash index over a column tuple.
type index struct {
	cols []string
	m    map[string][]int // key -> row positions
}

// positions returns the positions of the rows whose indexed columns equal
// r's. The key renders into a stack buffer, so the probe allocates nothing.
func (ix *index) positions(r Row) []int {
	var buf [64]byte
	return ix.m[string(r.AppendKey(buf[:0], ix.cols...))]
}

// indexOn returns the index over exactly cols, or nil.
func (t *Table) indexOn(cols []string) *index {
	for _, ix := range t.indexes {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	return nil
}

// Store is a collection of tables.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New returns an empty store.
func New() *Store { return &Store{tables: make(map[string]*Table)} }

// CreateTable registers a table with the given columns. Creating an
// existing table is an error.
func (s *Store) CreateTable(name string, cols ...string) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relstore: table %s needs at least one column", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[name]; dup {
		return nil, fmt.Errorf("relstore: table %s already exists", name)
	}
	t := &Table{name: name, cols: append([]string(nil), cols...)}
	s.tables[name] = t
	return t, nil
}

// MustCreateTable is CreateTable for schema-definition code.
func (s *Store) MustCreateTable(name string, cols ...string) *Table {
	t, err := s.CreateTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or nil.
func (s *Store) Table(name string) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[name]
}

// Tables returns the table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the declared columns.
func (t *Table) Columns() []string { return t.cols }

// CreateIndex builds a hash index over the given column tuple; queries via
// Lookup on the same tuple then avoid full scans.
func (t *Table) CreateIndex(cols ...string) error {
	for _, c := range cols {
		if !t.hasColumn(c) {
			return fmt.Errorf("relstore: %s: no column %s", t.name, c)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexOn(cols) != nil {
		return fmt.Errorf("relstore: %s: duplicate index on (%s)", t.name, strings.Join(cols, ","))
	}
	ix := &index{cols: append([]string(nil), cols...), m: make(map[string][]int)}
	for pos, r := range t.rows {
		ix.add(r, pos)
	}
	t.indexes = append(t.indexes, ix)
	return nil
}

func (t *Table) hasColumn(c string) bool {
	for _, col := range t.cols {
		if col == c {
			return true
		}
	}
	return false
}

// Insert appends a row. Rows must provide every declared column.
func (t *Table) Insert(r Row) error {
	if err := t.checkColumns("insert", r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insertLocked(r)
	return nil
}

func (t *Table) checkColumns(op string, r Row) error {
	for _, c := range t.cols {
		if _, ok := r.Get(c); !ok {
			return fmt.Errorf("relstore: %s: %s missing column %s", t.name, op, c)
		}
	}
	return nil
}

func (t *Table) insertLocked(r Row) {
	t.rows = append(t.rows, r)
	t.indexLocked(len(t.rows)-1, r)
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows) - t.deletedCountLocked()
}

func (t *Table) deletedCountLocked() int {
	n := 0
	for _, r := range t.rows {
		if r.Len() == 0 {
			n++
		}
	}
	return n
}

// Select returns the rows satisfying pred, in insertion order.
func (t *Table) Select(pred Predicate) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Row
	for _, r := range t.rows {
		if r.Len() == 0 {
			continue // tombstone
		}
		if pred == nil || pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Count returns how many rows satisfy pred.
func (t *Table) Count(pred Predicate) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, r := range t.rows {
		if r.Len() == 0 {
			continue
		}
		if pred == nil || pred(r) {
			n++
		}
	}
	return n
}

// Lookup appends to dst the rows whose column tuple cols equals key's and
// returns the extended slice, as append does. It goes through the index
// built with CreateIndex on exactly cols, and scans when there is none. An
// indexed lookup into a dst with room allocates nothing, hit or miss.
func (t *Table) Lookup(dst []Row, cols []string, key Row) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ix := t.indexOn(cols); ix != nil {
		for _, pos := range ix.positions(key) {
			if r := t.rows[pos]; r.Len() > 0 {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for _, r := range t.rows {
		if r.Len() > 0 && sameKey(r, key, cols) {
			dst = append(dst, r)
		}
	}
	return dst
}

// Update rewrites every row satisfying pred with fn's result and returns
// how many rows changed. fn must keep all declared columns.
func (t *Table) Update(pred Predicate, fn func(Row) Row) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i, r := range t.rows {
		if r.Len() == 0 || (pred != nil && !pred(r)) {
			continue
		}
		t.replaceLocked(i, fn(r))
		n++
	}
	return n
}

// Upsert replaces the row matching r on the key columns, or inserts r when
// none does. The match and the write are one critical section, so
// concurrent upserts of one key leave one row; the match goes through the
// index on keyCols when the table has one, else it scans.
func (t *Table) Upsert(keyCols []string, r Row) error {
	if err := t.checkColumns("upsert", r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var matches []int
	if ix := t.indexOn(keyCols); ix != nil {
		matches = ix.positions(r)
	} else {
		for i, row := range t.rows {
			if row.Len() > 0 && sameKey(row, r, keyCols) {
				matches = append(matches, i)
			}
		}
	}
	if len(matches) == 0 {
		t.insertLocked(r)
		return nil
	}
	// Every match renders the probed key, so replaceLocked leaves the index
	// entry matches aliases untouched.
	for _, pos := range matches {
		t.replaceLocked(pos, r)
	}
	return nil
}

// sameKey reports whether a and b agree on every column of cols.
func sameKey(a, b Row, cols []string) bool {
	for _, c := range cols {
		if !a.Field(c).Equal(b.Field(c)) {
			return false
		}
	}
	return true
}

// replaceLocked overwrites the row at pos, moving it only in the indexes
// whose key it changes.
func (t *Table) replaceLocked(pos int, r Row) {
	old := t.rows[pos]
	t.rows[pos] = r
	for _, ix := range t.indexes {
		var a, b [64]byte
		if !bytes.Equal(old.AppendKey(a[:0], ix.cols...), r.AppendKey(b[:0], ix.cols...)) {
			ix.remove(old, pos)
			ix.add(r, pos)
		}
	}
}

// Delete tombstones every row satisfying pred and returns the count.
func (t *Table) Delete(pred Predicate) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i, r := range t.rows {
		if r.Len() == 0 || (pred != nil && !pred(r)) {
			continue
		}
		for _, ix := range t.indexes {
			ix.remove(r, i)
		}
		t.rows[i] = Row{}
		n++
	}
	return n
}

func (t *Table) indexLocked(pos int, r Row) {
	for _, ix := range t.indexes {
		ix.add(r, pos)
	}
}

func (ix *index) add(r Row, pos int) {
	k := r.Key(ix.cols...)
	ix.m[k] = append(ix.m[k], pos)
}

func (ix *index) remove(r Row, pos int) {
	k := r.Key(ix.cols...)
	if list := slices.DeleteFunc(ix.m[k], func(p int) bool { return p == pos }); len(list) > 0 {
		ix.m[k] = list
	} else {
		delete(ix.m, k)
	}
}

// Compact removes tombstones and rebuilds indexes; long-running monitoring
// workflows call it periodically to bound memory.
func (t *Table) Compact() {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.rows[:0]
	for _, r := range t.rows {
		if r.Len() > 0 {
			live = append(live, r)
		}
	}
	t.rows = live
	for _, ix := range t.indexes {
		ix.m = make(map[string][]int)
	}
	for pos, r := range t.rows {
		t.indexLocked(pos, r)
	}
}

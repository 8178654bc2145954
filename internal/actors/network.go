package actors

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/value"
)

// LineParser turns one newline-delimited record from an external stream
// into a token and its event timestamp.
type LineParser func(line string) (value.Value, time.Time, error)

// ParseJSONLine decodes a JSON object into a Record token. A numeric "ts"
// field (seconds since the epoch) supplies the event time; records without
// one are stamped with the receive time.
func ParseJSONLine(line string) (value.Value, time.Time, error) {
	var raw map[string]any
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		return nil, time.Time{}, fmt.Errorf("actors: bad JSON line: %w", err)
	}
	ts := time.Now()
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]any, 0, 2*len(raw))
	for _, k := range keys {
		v := raw[k]
		if k == "ts" {
			if f, ok := v.(float64); ok {
				ts = time.Unix(0, int64(f*float64(time.Second))).UTC()
			}
		}
		pairs = append(pairs, k, jsonValue(v))
	}
	return value.NewRecord(pairs...), ts, nil
}

func jsonValue(v any) value.Value {
	switch t := v.(type) {
	case nil:
		return value.Nil{}
	case bool:
		return value.Bool(t)
	case float64:
		if t == float64(int64(t)) {
			return value.Int(int64(t))
		}
		return value.Float(t)
	case string:
		return value.Str(t)
	case []any:
		out := make(value.List, len(t))
		for i, e := range t {
			out[i] = jsonValue(e)
		}
		return out
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pairs := make([]any, 0, 2*len(t))
		for _, k := range keys {
			pairs = append(pairs, k, jsonValue(t[k]))
		}
		return value.NewRecord(pairs...)
	default:
		return value.Str(fmt.Sprint(t))
	}
}

// NetSource is a push-communication source: it connects to an external
// data stream and pumps records into the workflow's internal ports at the
// rate dictated by the director's execution model (paper Section 2.2).
type NetSource struct {
	*Source
	feed      *ChanFeed
	dial      func() (io.ReadCloser, error)
	parse     LineParser
	conn      io.ReadCloser
	parseErrs atomic.Int64
}

// newNetSource wires the shared reader plumbing.
func newNetSource(name string, dial func() (io.ReadCloser, error), parse LineParser) *NetSource {
	feed := NewChanFeed(4096)
	if parse == nil {
		parse = ParseJSONLine
	}
	return &NetSource{
		Source: NewSource(name, feed, 0),
		feed:   feed,
		dial:   dial,
		parse:  parse,
	}
}

// NewTCPSource builds a source that dials addr and streams newline-
// delimited records.
func NewTCPSource(name, addr string, parse LineParser) *NetSource {
	return newNetSource(name, func() (io.ReadCloser, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("actors: dial %s: %w", addr, err)
		}
		return conn, nil
	}, parse)
}

// NewHTTPSource builds a source that issues a GET to url and streams the
// newline-delimited response body.
func NewHTTPSource(name, url string, parse LineParser) *NetSource {
	return newNetSource(name, func() (io.ReadCloser, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, fmt.Errorf("actors: GET %s: %w", url, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("actors: GET %s: status %s", url, resp.Status)
		}
		return resp.Body, nil
	}, parse)
}

// Initialize implements model.Actor: connect and start the reader
// goroutine that fills the feed as the external source pushes data.
func (s *NetSource) Initialize(ctx *model.FireContext) error {
	rc, err := s.dial()
	if err != nil {
		return err
	}
	s.conn = rc
	go s.readLoop(rc)
	return nil
}

func (s *NetSource) readLoop(rc io.ReadCloser) {
	defer s.feed.Close()
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		tok, ts, err := s.parse(line)
		if err != nil {
			s.parseErrs.Add(1)
			continue
		}
		s.feed.Send(Item{Tok: tok, Time: ts})
	}
}

// ParseErrors returns how many records failed to parse and were dropped.
func (s *NetSource) ParseErrors() int64 { return s.parseErrs.Load() }

// Wrapup implements model.Actor: close the connection, unblocking the
// reader goroutine.
func (s *NetSource) Wrapup() error {
	if s.conn != nil {
		return s.conn.Close()
	}
	return nil
}

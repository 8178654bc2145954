package dist

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/event"
	"repro/internal/value"
)

// The original bridge wire format: one JSON object per line per event. The
// binary frame format (frame.go) replaced it on the wire; the codec stays
// in this test file as the baseline `make bench-dist` measures the binary
// format against.

// wireEvent is the JSON-serialized form of one event crossing a bridge.
type wireEvent struct {
	Tok  json.RawMessage `json:"tok"`
	TS   int64           `json:"ts"` // UnixNano event time
	Wave wireWave        `json:"wave"`
}

type wireWave struct {
	Root    int64  `json:"root"`
	RootSeq uint64 `json:"rootSeq"`
	Path    []int  `json:"path,omitempty"`
	Last    bool   `json:"last,omitempty"`
}

func encodeEventJSON(ev *event.Event) ([]byte, error) {
	tok, err := value.Encode(ev.Token)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireEvent{
		Tok: tok,
		TS:  ev.Time.UnixNano(),
		Wave: wireWave{
			Root:    ev.Wave.Root,
			RootSeq: ev.Wave.RootSeq,
			Path:    ev.Wave.Path,
			Last:    ev.Wave.Last,
		},
	})
}

func decodeEventJSON(line []byte) (*event.Event, error) {
	var we wireEvent
	if err := json.Unmarshal(line, &we); err != nil {
		return nil, fmt.Errorf("dist: decode event: %w", err)
	}
	tok, err := value.Decode(we.Tok)
	if err != nil {
		return nil, err
	}
	return &event.Event{
		Token: tok,
		Time:  time.Unix(0, we.TS).UTC(),
		Wave: event.WaveTag{
			Root:    we.Wave.Root,
			RootSeq: we.Wave.RootSeq,
			Path:    we.Wave.Path,
			Last:    we.Wave.Last,
		},
	}, nil
}

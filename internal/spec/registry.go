package spec

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/actors"
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/window"
)

// BuildContext is handed to an actor-type builder.
type BuildContext struct {
	Name   string
	Params Params
	Window window.Spec
	Built  *Built
}

// Builder constructs an actor instance from a specification entry.
type Builder func(ctx BuildContext) (model.Actor, error)

// Params is a typed view over the JSON parameter object.
type Params map[string]any

// Str returns a string parameter (or def).
func (p Params) Str(key, def string) string {
	if v, ok := p[key].(string); ok {
		return v
	}
	return def
}

// Int returns an integer parameter (or def).
func (p Params) Int(key string, def int) int {
	if v, ok := p[key].(float64); ok {
		return int(v)
	}
	return def
}

// Float returns a float parameter (or def).
func (p Params) Float(key string, def float64) float64 {
	if v, ok := p[key].(float64); ok {
		return v
	}
	return def
}

// Strings returns a string-list parameter.
func (p Params) Strings(key string) []string {
	raw, ok := p[key].([]any)
	if !ok {
		return nil
	}
	out := make([]string, 0, len(raw))
	for _, v := range raw {
		if s, ok := v.(string); ok {
			out = append(out, s)
		}
	}
	return out
}

var (
	typeMu sync.RWMutex
	types  = map[string]Builder{}
)

// RegisterType makes an actor type available to specifications. Built-in
// types register at init; registering an existing name panics.
func RegisterType(name string, b Builder) {
	typeMu.Lock()
	defer typeMu.Unlock()
	if _, dup := types[name]; dup {
		panic(fmt.Sprintf("spec: duplicate actor type %q", name))
	}
	types[name] = b
}

func lookupType(name string) (Builder, bool) {
	typeMu.RLock()
	defer typeMu.RUnlock()
	b, ok := types[name]
	return b, ok
}

// TypeNames lists the registered actor types, sorted.
func TypeNames() []string {
	typeMu.RLock()
	defer typeMu.RUnlock()
	out := make([]string, 0, len(types))
	for n := range types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PrintWriter is where "print" actors write; tests may redirect it.
var PrintWriter io.Writer = os.Stdout

func init() {
	RegisterType("generator", buildGenerator)
	RegisterType("tcp-source", buildTCPSource)
	RegisterType("http-source", buildHTTPSource)
	RegisterType("filter", buildFilter)
	RegisterType("scale", buildScale)
	RegisterType("project", buildProject)
	RegisterType("aggregate", buildAggregate)
	RegisterType("join", buildJoin)
	RegisterType("shed", buildShed)
	RegisterType("print", buildPrint)
	RegisterType("collect", buildCollect)
}

// generator: count, intervalMs, field, emit — emits records {field: i} by
// default, or bare tokens when emit is "int", "float" or "string".
func buildGenerator(ctx BuildContext) (model.Actor, error) {
	count := ctx.Params.Int("count", 100)
	interval := time.Duration(ctx.Params.Int("intervalMs", 1000)) * time.Millisecond
	field := ctx.Params.Str("field", "n")
	startMs := ctx.Params.Int("startUnixMs", 0)
	var start time.Time
	if startMs > 0 {
		start = time.UnixMilli(int64(startMs)).UTC()
	} else {
		// Default: events in the immediate past so real-time runs drain.
		start = time.Now().Add(-time.Duration(count) * interval)
	}
	var produce func(i int) value.Value
	var emits value.TypeSet
	switch emit := ctx.Params.Str("emit", "record"); emit {
	case "record":
		produce = func(i int) value.Value { return value.NewRecord(field, value.Int(int64(i))) }
		emits = value.TypeOf(value.KindRecord)
	case "int":
		produce = func(i int) value.Value { return value.Int(int64(i)) }
		emits = value.TypeOf(value.KindInt)
	case "float":
		produce = func(i int) value.Value { return value.Float(float64(i)) }
		emits = value.TypeOf(value.KindFloat)
	case "string":
		produce = func(i int) value.Value { return value.Str(fmt.Sprint(i)) }
		emits = value.TypeOf(value.KindString)
	default:
		return nil, fmt.Errorf("generator: unknown emit kind %q", emit)
	}
	g := actors.NewGenerator(ctx.Name, start, interval, count, produce)
	g.Out().SetTokenType(emits)
	return g, nil
}

// tcp-source: addr — JSON lines over TCP.
func buildTCPSource(ctx BuildContext) (model.Actor, error) {
	addr := ctx.Params.Str("addr", "")
	if addr == "" {
		return nil, fmt.Errorf("tcp-source requires params.addr")
	}
	return actors.NewTCPSource(ctx.Name, addr, nil), nil
}

// http-source: url — JSON lines over HTTP.
func buildHTTPSource(ctx BuildContext) (model.Actor, error) {
	url := ctx.Params.Str("url", "")
	if url == "" {
		return nil, fmt.Errorf("http-source requires params.url")
	}
	return actors.NewHTTPSource(ctx.Name, url, nil), nil
}

// filter: field, op (">", "<", ">=", "<=", "==", "!="), value.
func buildFilter(ctx BuildContext) (model.Actor, error) {
	field := ctx.Params.Str("field", "")
	if field == "" {
		return nil, fmt.Errorf("filter requires params.field")
	}
	op := ctx.Params.Str("op", ">")
	threshold := ctx.Params.Float("value", 0)
	cmp, err := comparator(op)
	if err != nil {
		return nil, err
	}
	f := actors.NewFilter(ctx.Name, func(v value.Value) bool {
		r, ok := v.(value.Record)
		if !ok {
			return false
		}
		return cmp(r.Float(field), threshold)
	})
	recordInOut(f)
	return f, nil
}

// recordInOut types a record-shaped transform: it inspects record fields,
// so both sides of the channel must carry records.
func recordInOut(f *actors.Func) {
	rec := value.TypeOf(value.KindRecord)
	f.In().SetTokenType(rec)
	f.Out().SetTokenType(rec)
}

func comparator(op string) (func(a, b float64) bool, error) {
	switch op {
	case ">":
		return func(a, b float64) bool { return a > b }, nil
	case "<":
		return func(a, b float64) bool { return a < b }, nil
	case ">=":
		return func(a, b float64) bool { return a >= b }, nil
	case "<=":
		return func(a, b float64) bool { return a <= b }, nil
	case "==":
		return func(a, b float64) bool { return a == b }, nil
	case "!=":
		return func(a, b float64) bool { return a != b }, nil
	default:
		return nil, fmt.Errorf("filter: unknown op %q", op)
	}
}

// scale: field, factor — multiplies a numeric field.
func buildScale(ctx BuildContext) (model.Actor, error) {
	field := ctx.Params.Str("field", "")
	if field == "" {
		return nil, fmt.Errorf("scale requires params.field")
	}
	factor := ctx.Params.Float("factor", 1)
	f := actors.NewMap(ctx.Name, func(v value.Value) value.Value {
		r, ok := v.(value.Record)
		if !ok {
			return v
		}
		return r.With(field, value.Float(r.Float(field)*factor))
	})
	recordInOut(f)
	return f, nil
}

// project: fields — keeps only the listed record fields.
func buildProject(ctx BuildContext) (model.Actor, error) {
	fields := ctx.Params.Strings("fields")
	if len(fields) == 0 {
		return nil, fmt.Errorf("project requires params.fields")
	}
	f := actors.NewMap(ctx.Name, func(v value.Value) value.Value {
		r, ok := v.(value.Record)
		if !ok {
			return v
		}
		pairs := make([]any, 0, 2*len(fields))
		for _, f := range fields {
			pairs = append(pairs, f, r.Field(f))
		}
		return value.NewRecord(pairs...)
	})
	recordInOut(f)
	return f, nil
}

// aggregate: fn (avg|sum|count|min|max), field — reduces each window.
func buildAggregate(ctx BuildContext) (model.Actor, error) {
	fn := ctx.Params.Str("fn", "avg")
	field := ctx.Params.Str("field", "")
	if field == "" && fn != "count" {
		return nil, fmt.Errorf("aggregate %q requires params.field", fn)
	}
	reduce, err := reducer(fn, field)
	if err != nil {
		return nil, err
	}
	win := ctx.Window
	if win.IsPassthrough() {
		return nil, fmt.Errorf("aggregate requires a window specification")
	}
	f := actors.NewAggregate(ctx.Name, win, reduce)
	recordInOut(f)
	return f, nil
}

func reducer(fn, field string) (func(w *window.Window) value.Value, error) {
	wrap := func(v float64, w *window.Window) value.Value {
		return value.NewRecord(
			"value", value.Float(v),
			"count", value.Int(int64(w.Len())),
			"group", value.Str(w.Group),
		)
	}
	switch fn {
	case "count":
		return func(w *window.Window) value.Value { return wrap(float64(w.Len()), w) }, nil
	case "avg", "sum", "min", "max":
		return func(w *window.Window) value.Value {
			if w.Len() == 0 {
				return nil
			}
			acc := 0.0
			for i := range w.Len() {
				x := w.Record(i).Float(field)
				switch fn {
				case "avg", "sum":
					acc += x
				case "min":
					if i == 0 || x < acc {
						acc = x
					}
				case "max":
					if i == 0 || x > acc {
						acc = x
					}
				}
			}
			if fn == "avg" {
				acc /= float64(w.Len())
			}
			return wrap(acc, w)
		}, nil
	default:
		return nil, fmt.Errorf("aggregate: unknown fn %q", fn)
	}
}

// join: on (fields), retainLeft, retainRight — two-stream equi-join whose
// output records carry every field of both sides (right fields win ties).
func buildJoin(ctx BuildContext) (model.Actor, error) {
	on := ctx.Params.Strings("on")
	if len(on) == 0 {
		return nil, fmt.Errorf("join requires params.on")
	}
	retainL := ctx.Params.Int("retainLeft", 1)
	retainR := ctx.Params.Int("retainRight", 1)
	j := actors.NewJoin(ctx.Name, on, retainL, retainR,
		func(l, r value.Record) value.Value {
			out := l
			for _, name := range r.Names() {
				out = out.With(name, r.Field(name))
			}
			return out
		})
	rec := value.TypeOf(value.KindRecord)
	j.Left().SetTokenType(rec)
	j.Right().SetTokenType(rec)
	j.Out().SetTokenType(rec)
	return j, nil
}

// shed: maxLagMs — load shedding pass-through.
func buildShed(ctx BuildContext) (model.Actor, error) {
	lag := time.Duration(ctx.Params.Int("maxLagMs", 5000)) * time.Millisecond
	s := actors.NewShedder(ctx.Name, lag)
	ctx.Built.Artifact(ctx.Name, s)
	return s, nil
}

// print: writes each token to PrintWriter.
func buildPrint(ctx BuildContext) (model.Actor, error) {
	return actors.NewSink(ctx.Name, ctx.Window, func(_ *model.FireContext, w *window.Window) error {
		for _, tok := range w.Tokens() {
			fmt.Fprintf(PrintWriter, "%s: %s\n", ctx.Name, tok)
		}
		return nil
	}), nil
}

// collect: gathers tokens; the *actors.Collect lands in Built.Artifacts.
func buildCollect(ctx BuildContext) (model.Actor, error) {
	c := actors.NewCollect(ctx.Name)
	ctx.Built.Artifact(ctx.Name, c)
	return c, nil
}

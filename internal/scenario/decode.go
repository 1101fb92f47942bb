package scenario

import (
	"fmt"
	"math"
	"strconv"
)

// Hard limits keeping compiled scenarios bounded whatever the input —
// the fuzz harness feeds this decoder arbitrary documents.
const (
	maxRanks      = 256
	maxIterations = 64
	maxMetahosts  = 16
	maxNodes      = 1024
	maxListLen    = 64
	maxSteps      = 50000 // ranks × phases ceiling after compilation
)

// Parse decodes and validates a scenario document (YAML subset or
// JSON). It returns a *Error and never panics, whatever the input.
func Parse(src []byte) (*Spec, error) {
	if len(src) > 1<<20 {
		return nil, errAt(0, "", "document larger than 1 MiB")
	}
	root, err := parseTree(src)
	if err != nil {
		return nil, err
	}
	sp, err := decodeSpec(root)
	if err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// Load is Parse followed by Compile.
func Load(src []byte) (*Program, error) {
	sp, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return sp.Compile()
}

// obj wraps a map node with path bookkeeping and strict key checking.
type obj struct {
	n    *node
	path string
	used map[string]bool
}

func newObj(n *node, path string) (*obj, error) {
	if n.kind != mapNode {
		return nil, errAt(n.line, path, "expected a mapping")
	}
	return &obj{n: n, path: path, used: make(map[string]bool)}, nil
}

func (o *obj) sub(key string) string {
	if o.path == "" {
		return key
	}
	return o.path + "." + key
}

func (o *obj) val(key string) *node {
	o.used[key] = true
	n := o.n.get(key)
	if n != nil && n.isNull() {
		return nil // `key:` with no value counts as absent
	}
	return n
}

// finish rejects unknown keys — the strictness that turns typos into
// errors instead of silently ignored settings.
func (o *obj) finish() error {
	for _, e := range o.n.entries {
		if !o.used[e.key] {
			return errAt(e.keyLine, o.path, "unknown key %q", e.key)
		}
	}
	return nil
}

func (o *obj) str(key, def string) (string, error) {
	n := o.val(key)
	if n == nil {
		return def, nil
	}
	if n.kind != scalarNode {
		return "", errAt(n.line, o.sub(key), "expected a string")
	}
	return n.scalar, nil
}

func (o *obj) f64(key string, def float64) (float64, error) {
	n := o.val(key)
	if n == nil {
		return def, nil
	}
	return decodeFloat(n, o.sub(key))
}

func decodeFloat(n *node, path string) (float64, error) {
	if n.kind != scalarNode || n.quoted {
		return 0, errAt(n.line, path, "expected a number")
	}
	v, err := strconv.ParseFloat(n.scalar, 64)
	if err != nil {
		return 0, errAt(n.line, path, "invalid number %q", n.scalar)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, errAt(n.line, path, "number must be finite, got %q", n.scalar)
	}
	return v, nil
}

func (o *obj) i(key string, def int) (int, error) {
	n := o.val(key)
	if n == nil {
		return def, nil
	}
	if n.kind != scalarNode || n.quoted {
		return 0, errAt(n.line, o.sub(key), "expected an integer")
	}
	v, err := strconv.ParseInt(n.scalar, 10, 32)
	if err != nil {
		return 0, errAt(n.line, o.sub(key), "invalid integer %q", n.scalar)
	}
	return int(v), nil
}

func (o *obj) i64(key string, def int64) (int64, error) {
	n := o.val(key)
	if n == nil {
		return def, nil
	}
	if n.kind != scalarNode || n.quoted {
		return 0, errAt(n.line, o.sub(key), "expected an integer")
	}
	v, err := strconv.ParseInt(n.scalar, 10, 64)
	if err != nil {
		return 0, errAt(n.line, o.sub(key), "invalid integer %q", n.scalar)
	}
	return v, nil
}

func (o *obj) b(key string, def bool) (bool, error) {
	n := o.val(key)
	if n == nil {
		return def, nil
	}
	if n.kind != scalarNode || n.quoted || (n.scalar != "true" && n.scalar != "false") {
		return false, errAt(n.line, o.sub(key), "expected true or false")
	}
	return n.scalar == "true", nil
}

func (o *obj) child(key string) (*obj, error) {
	n := o.val(key)
	if n == nil {
		return nil, nil
	}
	return newObj(n, o.sub(key))
}

func (o *obj) list(key string) ([]*node, int, error) {
	n := o.val(key)
	if n == nil {
		return nil, 0, nil
	}
	if n.kind != listNode {
		return nil, 0, errAt(n.line, o.sub(key), "expected a list")
	}
	if len(n.items) > maxListLen {
		return nil, 0, errAt(n.line, o.sub(key), "list has %d entries (limit %d)", len(n.items), maxListLen)
	}
	return n.items, n.line, nil
}

func decodeSpec(root *node) (*Spec, error) {
	o, err := newObj(root, "")
	if err != nil {
		return nil, err
	}
	sp := &Spec{}
	if sp.Name, err = o.str("name", ""); err != nil {
		return nil, err
	}
	if sp.Kernel, err = o.str("kernel", ""); err != nil {
		return nil, err
	}
	if sp.Seed, err = o.i64("seed", 1); err != nil {
		return nil, err
	}
	if sp.Ranks, err = o.i("ranks", 0); err != nil {
		return nil, err
	}
	if sp.Iterations, err = o.i("iterations", 2); err != nil {
		return nil, err
	}
	if sp.Bytes, err = o.i("bytes", 2048); err != nil {
		return nil, err
	}

	if err := decodeTopo(o, &sp.Topology); err != nil {
		return nil, err
	}
	if err := decodePlacement(o, sp); err != nil {
		return nil, err
	}
	if err := decodeSchedule(o, &sp.Schedule); err != nil {
		return nil, err
	}
	if err := decodeWork(o, &sp.Work); err != nil {
		return nil, err
	}
	if err := decodeParams(o, &sp.Params); err != nil {
		return nil, err
	}
	if err := decodeFaults(o, &sp.Faults); err != nil {
		return nil, err
	}
	if err := o.finish(); err != nil {
		return nil, err
	}
	return sp, nil
}

func decodeTopo(parent *obj, t *TopoSpec) error {
	o, err := parent.child("topology")
	if err != nil {
		return err
	}
	if o == nil {
		t.Preset = "conformance"
		t.Count = 2
		return nil
	}
	if t.Preset, err = o.str("preset", ""); err != nil {
		return err
	}
	if t.Count, err = o.i("count", 2); err != nil {
		return err
	}
	if t.Asymmetry, err = o.b("asymmetry", false); err != nil {
		return err
	}
	items, _, err := o.list("metahosts")
	if err != nil {
		return err
	}
	for i, it := range items {
		mo, err := newObj(it, fmt.Sprintf("%s[%d]", o.sub("metahosts"), i))
		if err != nil {
			return err
		}
		var m MetahostSpec
		if m.Name, err = mo.str("name", fmt.Sprintf("MH%c", 'A'+i%26)); err != nil {
			return err
		}
		if m.Nodes, err = mo.i("nodes", 0); err != nil {
			return err
		}
		if m.CPUs, err = mo.i("cpus", 1); err != nil {
			return err
		}
		if m.Speed, err = mo.f64("speed", 1.0); err != nil {
			return err
		}
		if err = decodeLink(mo, "internal", &m.Internal); err != nil {
			return err
		}
		if lo, err := mo.child("node_local"); err != nil {
			return err
		} else if lo != nil {
			m.NodeLocal = &LinkSpec{}
			if err := decodeLinkObj(lo, m.NodeLocal); err != nil {
				return err
			}
		}
		if err = decodeClock(mo, &m.Clock); err != nil {
			return err
		}
		if err = mo.finish(); err != nil {
			return err
		}
		t.Metahosts = append(t.Metahosts, m)
	}
	if eo, err := o.child("external"); err != nil {
		return err
	} else if eo != nil {
		t.External = &LinkSpec{}
		if err := decodeLinkObj(eo, t.External); err != nil {
			return err
		}
	}
	if t.Preset == "" && len(t.Metahosts) == 0 {
		t.Preset = "conformance"
	}
	return o.finish()
}

func decodeLink(parent *obj, key string, l *LinkSpec) error {
	o, err := parent.child(key)
	if err != nil {
		return err
	}
	if o == nil {
		return errAt(parent.n.line, parent.sub(key), "link description required")
	}
	return decodeLinkObj(o, l)
}

func decodeLinkObj(o *obj, l *LinkSpec) error {
	var err error
	if l.LatencyUS, err = o.f64("latency_us", 0); err != nil {
		return err
	}
	if l.JitterUS, err = o.f64("jitter_us", 0); err != nil {
		return err
	}
	if l.BandwidthGbps, err = o.f64("bandwidth_gbps", 0); err != nil {
		return err
	}
	if o.val("dedicated") != nil {
		o.used["dedicated"] = true
		d, err := o.b("dedicated", true)
		if err != nil {
			return err
		}
		l.Dedicated = &d
	}
	return o.finish()
}

func decodeClock(parent *obj, c *ClockSpec) error {
	o, err := parent.child("clock")
	if err != nil {
		return err
	}
	if o == nil {
		*c = ClockSpec{MaxOffsetMS: 5, MaxDriftPPM: 2}
		return nil
	}
	if c.MaxOffsetMS, err = o.f64("max_offset_ms", 5); err != nil {
		return err
	}
	if c.MaxDriftPPM, err = o.f64("max_drift_ppm", 2); err != nil {
		return err
	}
	if c.GranularityUS, err = o.f64("granularity_us", 0); err != nil {
		return err
	}
	if c.Synchronized, err = o.b("synchronized", false); err != nil {
		return err
	}
	return o.finish()
}

func decodePlacement(parent *obj, sp *Spec) error {
	items, _, err := parent.list("placement")
	if err != nil {
		return err
	}
	for i, it := range items {
		po, err := newObj(it, fmt.Sprintf("placement[%d]", i))
		if err != nil {
			return err
		}
		var p PlaceSpec
		if p.Metahost, err = po.i("metahost", 0); err != nil {
			return err
		}
		if p.FirstNode, err = po.i("first_node", 0); err != nil {
			return err
		}
		if p.Nodes, err = po.i("nodes", 0); err != nil {
			return err
		}
		if p.PerNode, err = po.i("per_node", 1); err != nil {
			return err
		}
		if err = po.finish(); err != nil {
			return err
		}
		sp.Placement = append(sp.Placement, p)
	}
	return nil
}

func decodeSchedule(parent *obj, s *ScheduleSpec) error {
	o, err := parent.child("schedule")
	if err != nil {
		return err
	}
	s.Align, s.Slack = 2.0, 0.25
	if o == nil {
		return nil
	}
	if s.Align, err = o.f64("align", 2.0); err != nil {
		return err
	}
	if s.Slack, err = o.f64("slack", 0.25); err != nil {
		return err
	}
	return o.finish()
}

func decodeWork(parent *obj, w *WorkSpec) error {
	o, err := parent.child("work")
	if err != nil {
		return err
	}
	w.Base, w.Spread = 0.2, 0.1
	if o == nil {
		return nil
	}
	if w.Base, err = o.f64("base", 0.2); err != nil {
		return err
	}
	if w.Spread, err = o.f64("spread", 0.1); err != nil {
		return err
	}
	return o.finish()
}

func decodeParams(parent *obj, p *ParamSpec) error {
	o, err := parent.child("params")
	if err != nil {
		return err
	}
	p.Prep, p.PrepSpread = 0.03, 0.02
	p.Collect, p.CollectSpread = 0.08, 0.05
	p.Amp = 0.25
	if o == nil {
		return nil
	}
	if p.PX, err = o.i("px", 0); err != nil {
		return err
	}
	if p.PY, err = o.i("py", 0); err != nil {
		return err
	}
	if p.Prep, err = o.f64("prep", 0.03); err != nil {
		return err
	}
	if p.PrepSpread, err = o.f64("prep_spread", 0.02); err != nil {
		return err
	}
	if p.Collect, err = o.f64("collect", 0.08); err != nil {
		return err
	}
	if p.CollectSpread, err = o.f64("collect_spread", 0.05); err != nil {
		return err
	}
	if p.Window, err = o.i("window", 0); err != nil {
		return err
	}
	if p.Amp, err = o.f64("amp", 0.25); err != nil {
		return err
	}
	return o.finish()
}

func decodeFaults(parent *obj, f *FaultSpec) error {
	o, err := parent.child("faults")
	if err != nil {
		return err
	}
	if o == nil {
		return nil
	}
	items, _, err := o.list("stragglers")
	if err != nil {
		return err
	}
	for i, it := range items {
		so, err := newObj(it, fmt.Sprintf("%s[%d]", o.sub("stragglers"), i))
		if err != nil {
			return err
		}
		var s StragglerSpec
		if s.Rank, err = so.i("rank", -1); err != nil {
			return err
		}
		if s.Factor, err = so.f64("factor", 2.0); err != nil {
			return err
		}
		if s.From, err = so.i("from", 0); err != nil {
			return err
		}
		if s.To, err = so.i("to", 1<<30); err != nil {
			return err
		}
		if err = so.finish(); err != nil {
			return err
		}
		f.Stragglers = append(f.Stragglers, s)
	}
	items, _, err = o.list("cross_traffic")
	if err != nil {
		return err
	}
	for i, it := range items {
		bo, err := newObj(it, fmt.Sprintf("%s[%d]", o.sub("cross_traffic"), i))
		if err != nil {
			return err
		}
		var b BurstSpec
		if b.From, err = bo.f64("from", 0); err != nil {
			return err
		}
		if b.To, err = bo.f64("to", 0); err != nil {
			return err
		}
		if b.ExtraMS, err = bo.f64("extra_ms", 1.0); err != nil {
			return err
		}
		if b.Class, err = bo.str("class", "external"); err != nil {
			return err
		}
		if err = bo.finish(); err != nil {
			return err
		}
		f.CrossTraffic = append(f.CrossTraffic, b)
	}
	items, _, err = o.list("truncate")
	if err != nil {
		return err
	}
	for i, it := range items {
		to, err := newObj(it, fmt.Sprintf("%s[%d]", o.sub("truncate"), i))
		if err != nil {
			return err
		}
		var tr TruncateSpec
		if tr.Rank, err = to.i("rank", -1); err != nil {
			return err
		}
		if tr.Keep, err = to.f64("keep", 0.5); err != nil {
			return err
		}
		if err = to.finish(); err != nil {
			return err
		}
		f.Truncate = append(f.Truncate, tr)
	}
	return o.finish()
}

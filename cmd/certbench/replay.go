package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanewidth"
	"repro/internal/msoc"
)

// The replays re-run one facade call through the exported functions of the
// layers beneath it, with a span around each call, so a traced run can say
// where the facade's time goes without instrumenting the program. Work
// that sits in unexported functions is timed by the program's own stage
// counters (derived spans) or left as the enclosing span's self time.

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// algebraProperty resolves a certificate property name the way the facade
// does: compiled formulas carry their source after "mso:".
func algebraProperty(name string) (algebra.Property, error) {
	if src, ok := strings.CutPrefix(name, "mso:"); ok {
		return msoc.CompileSource(src)
	}
	return algebra.ByName(name)
}

// structureReplay is a prebuilt core structure with the properties proved
// against it, for replays of ProveBatchOn.
type structureReplay struct {
	cfg   *cert.Config
	sp    *core.StructuralProof
	props []algebra.Property
	// names maps each algebra's display name, which keys core's batch
	// results, back to the certificate (catalog) name.
	names map[string]string
}

// replayStructure rebuilds the facade's BuildStructure: the decomposition,
// then the core build with the program's stage counters as derived spans,
// then the two lanewidth calls of the hierarchy stage once more on the
// same inputs, which splits that stage into lanewidth work and core
// assembly.
func replayStructure(ctx context.Context, parent *span, cfg *cert.Config) (*core.StructuralProof, error) {
	s := parent.child("interval.decompose")
	pd, err := interval.Decompose(cfg.G)
	s.end()
	if err != nil {
		return nil, fmt.Errorf("replay decompose: %w", err)
	}
	s = parent.child("core.build_structure")
	sp, err := core.BuildStructureCtx(ctx, cfg, pd, core.StructureOptions{})
	s.end()
	if err != nil {
		return nil, fmt.Errorf("replay structure: %w", err)
	}
	st := sp.Stages()
	// With a decomposition supplied, the first stage only validates it.
	off := s.derived("core.validate_decomposition", "", 0, msDur(st.DecomposeMillis))
	off = s.derived("lanes.build", "", off, msDur(st.LanesMillis))
	off = s.derived("lanewidth.transcript", "", off, msDur(st.TranscriptMillis))
	s.derived("core.hierarchy_stage", "", off, msDur(st.HierarchyMillis))

	s = parent.child("lanewidth.replay")
	defer s.end()
	log, err := lanewidth.FromCompletion(cfg.G, sp.PD.ToIntervals(cfg.G.N()), sp.Partition)
	if err != nil {
		return nil, fmt.Errorf("replay transcript: %w", err)
	}
	h := s.child("lanewidth.hierarchy")
	hier, err := lanewidth.BuildHierarchy(sp.Completion.Graph, log)
	h.end()
	if err != nil {
		return nil, fmt.Errorf("replay hierarchy: %w", err)
	}
	v := s.child("lanewidth.validate")
	err = hier.ValidateP(runtime.GOMAXPROCS(0))
	v.end()
	if err != nil {
		return nil, fmt.Errorf("replay validate: %w", err)
	}
	return sp, nil
}

// newStructureReplay builds the replay structure for a graph and its
// property names, recording the build's spans under parent.
func newStructureReplay(ctx context.Context, parent *span, spec graphSpec, names []string) (*structureReplay, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	r := &structureReplay{cfg: cfg, names: map[string]string{}}
	for _, n := range names {
		p, err := algebraProperty(n)
		if err != nil {
			return nil, err
		}
		r.props = append(r.props, p)
		r.names[p.Name()] = n
	}
	if r.sp, err = replayStructure(ctx, parent, cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// proveAll replays ProveBatchOn: one core batch over the prebuilt
// structure, each property's sweep as a derived span. It returns the
// largest label and the total class count, which must match the facade's.
func (r *structureReplay) proveAll(ctx context.Context, parent *span) (bits, classes int, err error) {
	batch, err := core.NewBatch(r.props, core.BatchOptions{})
	if err != nil {
		return 0, 0, err
	}
	s := parent.child("core.prove_all")
	_, st, err := batch.ProveAllWithCtx(ctx, r.sp)
	s.end()
	if err != nil {
		return 0, 0, fmt.Errorf("replay prove: %w", err)
	}
	if len(st.Failed) > 0 {
		return 0, 0, fmt.Errorf("replay prove: %d properties fail", len(st.Failed))
	}
	names := make([]string, 0, len(st.PerProperty))
	for name := range st.PerProperty {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ps := st.PerProperty[name]
		// The batch runs passes concurrently; each sweep is laid out from
		// the batch's start, its true offset being unobservable.
		s.derived("core.sweep", r.names[name], 0, msDur(ps.Stages.SweepMillis))
		bits = max(bits, ps.MaxLabelBits)
		classes += ps.RegistryClasses
	}
	return bits, classes, nil
}

// plscLabel is one edge label as it sits in a PLSC certificate blob.
type plscLabel struct {
	e       graph.Edge
	nbits   int
	payload []byte
}

type plscProperty struct {
	name   string
	labels []plscLabel
}

// parsePLSC walks a PLSC container (layout documented on
// certify.Certificate) down to its label payloads. It trusts the blob:
// only blobs the facade has already accepted are replayed.
func parsePLSC(blob []byte) (maxLanes int, props []plscProperty, err error) {
	const header = len("PLSC") + 1
	if len(blob) < header+4 {
		return 0, nil, errors.New("plsc: short blob")
	}
	r := blob[header : len(blob)-4]
	take := func() int {
		v, n := binary.Uvarint(r)
		if n <= 0 {
			err = errors.New("plsc: truncated varint")
			return 0
		}
		r = r[n:]
		return int(v)
	}
	maxLanes = take()
	take() // n
	take() // m
	if err != nil || len(r) < 8 {
		return 0, nil, errors.New("plsc: truncated header")
	}
	r = r[8:] // fingerprint
	for p := take(); p > 0 && err == nil; p-- {
		nameLen := take()
		prop := plscProperty{name: string(r[:nameLen])}
		r = r[nameLen:]
		for e := take(); e > 0 && err == nil; e-- {
			u, v, nbits := take(), take(), take()
			nbytes := (nbits + 7) / 8
			prop.labels = append(prop.labels, plscLabel{graph.Edge{U: u, V: v}, nbits, r[:nbytes]})
			r = r[nbytes:]
		}
		props = append(props, prop)
	}
	return maxLanes, props, err
}

// replayDecode re-runs UnmarshalBinary and Verify on the core layer: label
// decode, the canonical re-encode check, registry reconstruction, and the
// per-vertex verifier, each as its own span. Every vertex must accept.
func replayDecode(ctx context.Context, parent *span, cfg *cert.Config, blob []byte) error {
	maxLanes, props, err := parsePLSC(blob)
	if err != nil {
		return err
	}
	labelings := make([]*core.Labeling, len(props))
	s := parent.child("core.decode_label")
	for i, p := range props {
		l := &core.Labeling{Edges: make(map[graph.Edge]*core.EdgeLabel, len(p.labels))}
		for _, pl := range p.labels {
			el, derr := core.DecodeLabel(pl.payload, pl.nbits)
			if derr != nil {
				s.end()
				return fmt.Errorf("replay decode %s %v: %w", p.name, pl.e, derr)
			}
			l.Edges[pl.e] = el
		}
		labelings[i] = l
	}
	s.end()
	s = parent.child("core.encode_label")
	for i, p := range props {
		for _, pl := range p.labels {
			data, nbits := core.EncodeLabel(labelings[i].Edges[pl.e])
			if nbits != pl.nbits || string(data) != string(pl.payload) {
				s.end()
				return fmt.Errorf("replay: label %v of %s is not canonical", pl.e, p.name)
			}
		}
	}
	s.end()
	for i, p := range props {
		prop, err := algebraProperty(p.name)
		if err != nil {
			return err
		}
		scheme := core.NewScheme(prop, maxLanes)
		s = parent.child("core.rebuild_registry")
		err = scheme.RebuildRegistry(labelings[i])
		s.end()
		if err != nil {
			return fmt.Errorf("replay rebuild %s: %w", p.name, err)
		}
		s = parent.child("core.verify")
		verdicts, err := scheme.VerifyParallelCtx(ctx, cfg, labelings[i])
		s.end()
		if err != nil {
			return err
		}
		if !core.AllAccept(verdicts) {
			return fmt.Errorf("replay verify %s: a vertex rejects", p.name)
		}
	}
	return nil
}

// Package trace exports simulation activity as Value Change Dump (VCD)
// files — IEEE 1364's waveform interchange format — so gocad runs can be
// inspected in any standard waveform viewer. Sources are either live
// (emit values as the simulation observes them) or post-hoc (dump the
// recorded histories of PrimaryOutput monitors).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/module"
	"repro/internal/signal"
	"repro/internal/sim"
)

// SignalID identifies one declared VCD variable.
type SignalID int

// VCD writes a Value Change Dump incrementally. Declare signals first,
// then emit changes in nondecreasing time order, then Close.
type VCD struct {
	w         io.Writer
	timescale string
	scope     string

	names  []string
	widths []int
	codes  []string

	headerDone bool
	lastTime   sim.Time
	haveTime   bool
	err        error
}

// NewVCD returns a writer targeting w. timescale follows VCD syntax
// (e.g. "1ns"); scope names the design module.
func NewVCD(w io.Writer, timescale, scope string) *VCD {
	if timescale == "" {
		timescale = "1ns"
	}
	if scope == "" {
		scope = "gocad"
	}
	return &VCD{w: w, timescale: timescale, scope: scope}
}

// AddSignal declares a variable before the header is written.
func (v *VCD) AddSignal(name string, width int) (SignalID, error) {
	if v.headerDone {
		return 0, fmt.Errorf("trace: AddSignal after first Emit")
	}
	if width < 1 {
		return 0, fmt.Errorf("trace: signal %q width %d", name, width)
	}
	id := SignalID(len(v.names))
	v.names = append(v.names, name)
	v.widths = append(v.widths, width)
	v.codes = append(v.codes, idCode(int(id)))
	return id, nil
}

// idCode builds the compact VCD identifier code for the nth signal.
func idCode(n int) string {
	const alphabet = "!#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var sb strings.Builder
	for {
		sb.WriteByte(alphabet[n%len(alphabet)])
		n /= len(alphabet)
		if n == 0 {
			break
		}
	}
	return sb.String()
}

// header writes the declaration section once.
func (v *VCD) header() {
	if v.headerDone || v.err != nil {
		return
	}
	v.headerDone = true
	v.printf("$timescale %s $end\n", v.timescale)
	v.printf("$scope module %s $end\n", v.scope)
	for i, name := range v.names {
		kind := "wire"
		v.printf("$var %s %d %s %s $end\n", kind, v.widths[i], v.codes[i], sanitize(name))
	}
	v.printf("$upscope $end\n$enddefinitions $end\n")
}

// sanitize strips VCD-hostile characters from identifiers.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n':
			return '_'
		}
		return r
	}, s)
}

func (v *VCD) printf(format string, args ...any) {
	if v.err != nil {
		return
	}
	_, v.err = fmt.Fprintf(v.w, format, args...)
}

// Emit records a value change at the given simulation time. Times must
// be nondecreasing.
func (v *VCD) Emit(t sim.Time, id SignalID, val signal.Value) error {
	if v.err != nil {
		return v.err
	}
	if int(id) < 0 || int(id) >= len(v.names) {
		return fmt.Errorf("trace: unknown signal id %d", id)
	}
	v.header()
	if v.haveTime && t < v.lastTime {
		return fmt.Errorf("trace: time %d before %d", t, v.lastTime)
	}
	if !v.haveTime || t != v.lastTime {
		v.printf("#%d\n", t)
		v.lastTime = t
		v.haveTime = true
	}
	switch x := val.(type) {
	case signal.BitValue:
		v.printf("%s%s\n", strings.ToLower(x.B.String()), v.codes[id])
	case signal.WordValue:
		v.printf("b%s %s\n", strings.ToLower(x.W.String()), v.codes[id])
	default:
		// Custom payloads are traced as string metadata.
		v.printf("s%s %s\n", sanitize(val.String()), v.codes[id])
	}
	return v.err
}

// Close finalizes the dump (writing the header even for empty traces).
func (v *VCD) Close() error {
	v.header()
	return v.err
}

// observationEvent pairs a monitor's observation with its signal.
type observationEvent struct {
	id  SignalID
	obs module.Observation
	seq int
}

// DumpOutputs writes a complete VCD from the histories the primary-output
// monitors recorded in sched's last run (a run's Stats.Scheduler); call
// it before sched runs again.
func DumpOutputs(w io.Writer, timescale string, sched *sim.Scheduler, outs []*module.PrimaryOutput) error {
	v := NewVCD(w, timescale, "design")
	var events []observationEvent
	for _, po := range outs {
		width := 1
		if ports := po.Ports(); len(ports) > 0 {
			width = ports[0].Width
		}
		id, err := v.AddSignal(po.ModuleName(), width)
		if err != nil {
			return err
		}
		for i, obs := range po.History(sched) {
			events = append(events, observationEvent{id: id, obs: obs, seq: i})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].obs.Time < events[j].obs.Time
	})
	for _, e := range events {
		if err := v.Emit(e.obs.Time, e.id, e.obs.Value); err != nil {
			return err
		}
	}
	return v.Close()
}

package module

import (
	"fmt"
	"testing"

	"repro/internal/signal"
)

// videoFrame is an abstract design representation payload — the paper's
// example of a custom connector semantics: "video signals handled by a
// DSP". It carries structured data rather than bits or words.
type videoFrame struct {
	Seq    int
	Pixels []uint8
}

func (f videoFrame) ValueWidth() int { return 8 * len(f.Pixels) }

func (f videoFrame) EqualValue(o signal.Value) bool {
	of, ok := o.(videoFrame)
	if !ok || of.Seq != f.Seq || len(of.Pixels) != len(f.Pixels) {
		return false
	}
	for i := range f.Pixels {
		if of.Pixels[i] != f.Pixels[i] {
			return false
		}
	}
	return true
}

func (f videoFrame) String() string { return fmt.Sprintf("frame#%d(%dpx)", f.Seq, len(f.Pixels)) }

// newVideoConnector enforces the custom semantics: only frames with the
// configured resolution may cross.
func newVideoConnector(name string, pixels int) *Connector {
	return NewCustomConnector(name, 8*pixels, func(v signal.Value) error {
		f, ok := v.(videoFrame)
		if !ok {
			return fmt.Errorf("connector %q carries video frames, got %T", name, v)
		}
		if len(f.Pixels) != pixels {
			return fmt.Errorf("connector %q carries %d-pixel frames, got %d", name, pixels, len(f.Pixels))
		}
		return nil
	})
}

// dspInvert is a toy DSP module: it inverts every pixel of each frame.
type dspInvert struct {
	*Skeleton
	in, out *Port
}

func newDSPInvert(name string, pixels int, in, out *Connector) *dspInvert {
	m := &dspInvert{}
	m.Skeleton = NewSkeleton(name, m)
	m.in = m.AddPort("in", In, 8*pixels, in)
	m.out = m.AddPort("out", Out, 8*pixels, out)
	return m
}

func (m *dspInvert) ProcessInputEvent(ctx *Ctx, ev *PortEvent) {
	f, ok := ev.Value.(videoFrame)
	if !ok {
		return
	}
	g := videoFrame{Seq: f.Seq, Pixels: make([]uint8, len(f.Pixels))}
	for i, p := range f.Pixels {
		g.Pixels[i] = ^p
	}
	ctx.Drive(m.out, g, 1)
}

func TestCustomConnectorVideoPipeline(t *testing.T) {
	const pixels = 4
	src := newVideoConnector("src", pixels)
	dst := newVideoConnector("dst", pixels)
	frames := []signal.Value{
		videoFrame{Seq: 0, Pixels: []uint8{0x00, 0x10, 0x20, 0x30}},
		videoFrame{Seq: 1, Pixels: []uint8{0xFF, 0xFE, 0xFD, 0xFC}},
	}
	in := NewPatternInput("cam", 8*pixels, frames, 10, src)
	dsp := newDSPInvert("dsp", pixels, src, dst)
	out := NewPrimaryOutput("sink", 8*pixels, dst)
	st := NewSimulation(NewCircuit("video", in, dsp, out)).Start(nil)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	h := out.LastHistory()
	if len(h) != 2 {
		t.Fatalf("frames observed = %d", len(h))
	}
	first := h[0].Value.(videoFrame)
	if first.Pixels[0] != 0xFF || first.Pixels[3] != 0xCF {
		t.Errorf("inverted frame wrong: %v", first.Pixels)
	}
}

func TestCustomConnectorRejectsForeignPayload(t *testing.T) {
	const pixels = 2
	src := newVideoConnector("src", pixels)
	dst := newVideoConnector("dst", pixels)
	// A word where a frame is expected.
	in := NewPatternInput("bad", 8*pixels, []signal.Value{word(3, 16)}, 10, src)
	dsp := newDSPInvert("dsp", pixels, src, dst)
	s := NewSimulation(NewCircuit("video", in, dsp))
	defer func() {
		if recover() == nil {
			t.Error("foreign payload crossed a custom connector")
		}
	}()
	s.Start(nil)
}

func TestCustomConnectorRejectsWrongResolution(t *testing.T) {
	const pixels = 2
	src := newVideoConnector("src", pixels)
	dst := newVideoConnector("dst", pixels)
	in := NewPatternInput("cam", 8*pixels, []signal.Value{
		videoFrame{Seq: 0, Pixels: []uint8{1, 2, 3}}, // 3 pixels on a 2-pixel link
	}, 10, src)
	dsp := newDSPInvert("dsp", pixels, src, dst)
	s := NewSimulation(NewCircuit("video", in, dsp))
	defer func() {
		if recover() == nil {
			t.Error("wrong-resolution frame crossed")
		}
	}()
	s.Start(nil)
}

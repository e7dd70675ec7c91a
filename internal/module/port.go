// Package module implements gocad's design model — the JavaCAD
// Foundation Packages' component layer. Any design component embeds
// Skeleton (the paper's ModuleSkeleton), is specialized by a behavior
// that processes input events, and exposes ports tied together by
// point-to-point zero-delay connectors. The package also provides the
// standard module library: primary inputs/outputs, registers, behavioral
// arithmetic, gates, netlist-backed components, fan-out and delay
// modules, clock generators, and mixed-level adapters.
package module

import (
	"fmt"

	"repro/internal/signal"
)

// Direction tells whether a port provides an input connection, an output
// connection, or both.
type Direction int

// Port directions.
const (
	In Direction = iota
	Out
	InOut
)

// String returns "in", "out" or "inout".
func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Port identifies one connection point of a module.
type Port struct {
	Name  string
	Dir   Direction
	Width int
	// Index is the port's position in its module's port list; signal
	// tokens address ports by this index.
	Index int

	owner *Skeleton
	conn  *Connector
}

// Connector returns the connector tied to the port, or nil.
func (p *Port) Connector() *Connector { return p.conn }

// Owner returns the skeleton of the owning module (nil for detached
// ports). It is the delivery target for tokens addressed to this port.
func (p *Port) Owner() *Skeleton { return p.owner }

// Module returns the name of the owning module.
func (p *Port) Module() string {
	if p.owner == nil {
		return ""
	}
	return p.owner.name
}

// Connector ties two ports together and forwards events between modules.
// Connectors represent point-to-point zero-delay connections; multiple
// fan-out nets and net delays are modeled by explicit fan-out and delay
// modules, which gives designers per-branch control. A connector enforces
// a communication semantics via its Validate hook: the built-in bit- and
// word-level connectors check payload type and width, and custom
// connectors for abstract representations (the paper's example: video
// signals handled by a DSP) can enforce their own.
type Connector struct {
	Name  string
	Width int
	// Validate rejects payloads that violate the connector's semantics.
	Validate func(signal.Value) error

	a, b *Port
}

// NewBitConnector returns a connector carrying single four-valued bits —
// the gate-level connection type.
func NewBitConnector(name string) *Connector {
	return &Connector{
		Name:  name,
		Width: 1,
		Validate: func(v signal.Value) error {
			if _, ok := v.(signal.BitValue); !ok {
				return fmt.Errorf("module: connector %q carries bits, got %T", name, v)
			}
			return nil
		},
	}
}

// NewWordConnector returns a connector carrying words of the given width
// — the word-level (RTL) connection type.
func NewWordConnector(name string, width int) *Connector {
	if width <= 0 {
		panic(fmt.Sprintf("module: word connector %q with width %d", name, width))
	}
	return &Connector{
		Name:  name,
		Width: width,
		Validate: func(v signal.Value) error {
			w, ok := v.(signal.WordValue)
			if !ok {
				return fmt.Errorf("module: connector %q carries words, got %T", name, v)
			}
			if w.W.Width() != width {
				return fmt.Errorf("module: connector %q carries %d-bit words, got %d bits",
					name, width, w.W.Width())
			}
			return nil
		},
	}
}

// attach binds a port to one of the connector's two ends.
func (c *Connector) attach(p *Port) {
	switch {
	case c.a == nil:
		c.a = p
	case c.b == nil:
		c.b = p
	default:
		panic(fmt.Sprintf("module: connector %q already ties %s.%s and %s.%s; connectors are point-to-point",
			c.Name, c.a.Module(), c.a.Name, c.b.Module(), c.b.Name))
	}
}

// peer returns the port on the other end, or nil if unattached.
func (c *Connector) peer(p *Port) *Port {
	switch p {
	case c.a:
		return c.b
	case c.b:
		return c.a
	}
	return nil
}

// Peer returns the port on the other end of the connector, or nil when p
// is not attached to it or the far end is dangling.
func (c *Connector) Peer(p *Port) *Port { return c.peer(p) }

// InputEnd returns the attached port that receives events (direction In
// or InOut), or nil.
func (c *Connector) InputEnd() *Port {
	for _, p := range []*Port{c.a, c.b} {
		if p != nil && (p.Dir == In || p.Dir == InOut) {
			return p
		}
	}
	return nil
}

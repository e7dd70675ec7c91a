package module

import "fmt"

// Issue is one design-rule finding from Validate.
type Issue struct {
	// Severity is "error" for structures that will misbehave or panic at
	// simulation time, "warning" for suspicious-but-legal ones.
	Severity string
	Module   string
	Port     string
	Msg      string
}

func (i Issue) String() string {
	where := i.Module
	if i.Port != "" {
		where += "." + i.Port
	}
	return fmt.Sprintf("%s: %s: %s", i.Severity, where, i.Msg)
}

// Validate runs design-rule checks over a circuit before simulation:
//
//   - two output (or two input) ends tied to one connector — a connector
//     must join a producer to a consumer;
//   - dangling input ports (no connector, or a connector with no driver):
//     the module will never receive events on them;
//   - dangling output connectors (no reader): events will be dropped;
//   - width mismatches between a port and its connector (normally caught
//     at construction, but detached ports re-wired by hand can drift).
//
// Validate is advisory: gocad simulates designs with warnings (the paper
// allows partially-wired exploration), but errors indicate a structure
// that cannot behave as intended.
// Used only by tests: TestValidateCleanDesign, TestValidateDanglingInput.
func Validate(c *Circuit) []Issue {
	var issues []Issue
	for _, m := range c.Leaves() {
		for _, p := range m.Ports() {
			conn := p.Connector()
			if conn == nil {
				sev := "warning"
				msg := "port has no connector"
				if p.Dir == In {
					msg = "input port has no connector; it will never receive events"
				}
				issues = append(issues, Issue{Severity: sev, Module: m.ModuleName(), Port: p.Name, Msg: msg})
				continue
			}
			if conn.Width != 0 && p.Width != 0 && conn.Width != p.Width {
				issues = append(issues, Issue{
					Severity: "error", Module: m.ModuleName(), Port: p.Name,
					Msg: fmt.Sprintf("port width %d does not match connector %q width %d", p.Width, conn.Name, conn.Width),
				})
			}
			peer := conn.Peer(p)
			if peer == nil {
				msg := "connector has no far end; events will be dropped"
				sev := "warning"
				if p.Dir == In {
					msg = "input connector has no driver; the port will never receive events"
				}
				issues = append(issues, Issue{Severity: sev, Module: m.ModuleName(), Port: p.Name, Msg: msg})
				continue
			}
			// Direction agreement (report once, from the lower module name).
			if p.Dir == peer.Dir && p.Dir != InOut && m.ModuleName() <= peer.Module() {
				issues = append(issues, Issue{
					Severity: "error", Module: m.ModuleName(), Port: p.Name,
					Msg: fmt.Sprintf("connector %q ties two %s ports (%s.%s and %s.%s)",
						conn.Name, p.Dir, m.ModuleName(), p.Name, peer.Module(), peer.Name),
				})
			}
		}
	}
	return issues
}

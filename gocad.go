// Package gocad is a Go reproduction of JavaCAD — "Virtual Simulation of
// Distributed IP-Based Designs" (Dalpasso, Benini, Bogliolo; DAC 1999) —
// an Internet-based design environment with a secure client-server
// architecture that lets designers perform functional simulation, fault
// simulation, and cost estimation of circuits containing IP components,
// while protecting the IP of both vendors and users.
//
// This root package is the public facade: exactly the names the programs
// under examples/ use, re-exported from the internal subsystem packages
// so a design can be written against one import path. A name no program
// uses is not exported here (TestEveryExportHasACaller in
// internal/lint/registry enforces it); code that needs more imports the
// internal package, as examples/protection does. The building blocks:
//
//   - design model: connectors, modules, circuits and the standard module
//     library (registers, arithmetic, stimulus, monitors), run through
//     a Simulation;
//   - estimation: parameters, setup controllers and their criteria;
//   - distribution: provider servers hosting private parts, client
//     sessions binding remote components, the remote multiplier and the
//     pattern-buffered nonblocking remote estimator, emulated networks.
package gocad

import (
	"repro/internal/core"
	"repro/internal/estim"
	"repro/internal/gate"
	"repro/internal/iplib"
	"repro/internal/module"
	"repro/internal/netsim"
	"repro/internal/ppp"
	"repro/internal/provider"
	"repro/internal/signal"
)

// Bit is a four-valued logic level: 0, 1, unknown or high impedance.
type Bit = signal.Bit

// The two known logic levels.
const (
	B0 = signal.B0
	B1 = signal.B1
)

// Design model.
type (
	// Module is a design component.
	Module = module.Module
	// Connector ties two ports together.
	Connector = module.Connector
)

// Connector constructors.
var (
	NewBitConnector  = module.NewBitConnector
	NewWordConnector = module.NewWordConnector
)

// Standard module library.
var (
	NewCircuit            = module.NewCircuit
	NewSimulation         = module.NewSimulation
	NewRegister           = module.NewRegister
	NewCounter            = module.NewCounter
	NewClockGen           = module.NewClockGen
	NewFanout             = module.NewFanout
	NewNetlistModule      = module.NewNetlistModule
	NewWordToBits         = module.NewWordToBits
	NewBitsToWord         = module.NewBitsToWord
	NewRandomPrimaryInput = module.NewRandomPrimaryInput
	NewConstInput         = module.NewConstInput
	NewPrimaryOutput      = module.NewPrimaryOutput
)

// Estimation framework.
type (
	// Setup is the setup controller selecting and recording estimators.
	Setup = estim.Setup
	// Criteria chooses among candidate estimators.
	Criteria = estim.Criteria
)

// Predefined parameters.
const (
	ParamArea     = estim.ParamArea
	ParamAvgPower = estim.ParamAvgPower
)

// PreferAccuracy selects the most accurate candidate estimator.
const PreferAccuracy = estim.PreferAccuracy

// NewSetup returns an empty setup controller.
func NewSetup(name string) *Setup { return estim.NewSetup(name) }

// Gate-level structure and its characterization.
var (
	RippleAdder = gate.RippleAdder
	AreaOf      = ppp.AreaOf
)

// Distribution: providers, clients, remote components.
type (
	// ProviderComponent is a catalogue entry with its private part.
	ProviderComponent = provider.Component
	// BoundInstance is one instantiated remote component.
	BoundInstance = iplib.BoundInstance
	// RemoteMult is the paper's multiplier as a remote module.
	RemoteMult = core.RemoteMult
	// RemotePowerEstimator is the buffered nonblocking remote estimator.
	RemotePowerEstimator = core.RemotePowerEstimator
	// Connection is one authenticated client-provider session.
	Connection = core.Connection
)

// Provider-side constructors, the standard catalogue and client binding.
var (
	NewProvider        = provider.New
	MultFastLowPower   = provider.MultFastLowPower
	HalfAdderIP1       = provider.HalfAdderIP1
	ConnectInProcess   = core.ConnectInProcess
	NewRemoteMult      = core.NewRemoteMult
	NewRemoteEstimator = core.NewRemotePowerEstimator
)

// Emulated network environments.
var (
	NetLAN = netsim.LAN
	NetWAN = netsim.WAN
)

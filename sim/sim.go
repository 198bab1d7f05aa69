// Package sim is the public measurement harness of the spinal-code
// library: workload-scale drivers over the link session (multi-flow
// mixes, named time-varying channel scenarios) and the registry of the
// paper's reproduction experiments.
//
// Unlike spinal, spinal/channel and spinal/link, this package is an
// experiment surface, not a stability contract: configurations and
// result fields may grow between versions as new scenarios are added
// (see docs/API.md). Every run is deterministic given its seed.
package sim

import (
	"spinal/internal/experiments"
	isim "spinal/internal/sim"
	"spinal/link"
)

// ScenarioConfig drives MeasureScenario: a named channel workload
// ("burst", "walk", "trace:<file>", "churn", "feedback-delay",
// "feedback-loss", "chaos", "chaos-feedback", "mice-elephants",
// "fetch-cubic"), a rate-policy spec ("fixed[:n]", "capacity[:db]",
// "tracking[:db]"), an optional admission scheduler ("rr", "dwfq"), and
// the population/budget knobs.
type ScenarioConfig = isim.ScenarioConfig

// ScenarioResult aggregates a scenario run: delivery, goodput, outage,
// reverse-channel and half-duplex accounting.
type ScenarioResult = isim.ScenarioResult

// MeasureScenario runs the named time-varying channel workload through a
// link session and aggregates goodput and outage statistics.
func MeasureScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	return isim.MeasureScenario(cfg)
}

// Scenarios lists the named scenarios MeasureScenario accepts.
func Scenarios() []string { return isim.Scenarios() }

// DaemonLoadConfig drives MeasureDaemonLoad: one spinald-style daemon,
// a sweep of concurrent flow counts through it over a single client
// socket.
type DaemonLoadConfig = isim.DaemonLoadConfig

// DaemonLoadPoint is one sweep point's aggregate outcome.
type DaemonLoadPoint = isim.DaemonLoadPoint

// MeasureDaemonLoad boots one daemon and measures aggregate goodput —
// delivered payload bits per symbol of parallel (busiest-shard) airtime
// — at each configured concurrent-flow count.
func MeasureDaemonLoad(cfg DaemonLoadConfig) ([]DaemonLoadPoint, error) {
	return isim.MeasureDaemonLoad(cfg)
}

// ChaosFaults is the adversarial fault mix the chaos scenarios run
// under; ackFaults adds the reverse-path (ack) fault kinds. Scale it
// (link.FaultConfig.Scale) for intensity sweeps.
func ChaosFaults(ackFaults bool) link.FaultConfig { return isim.ChaosFaults(ackFaults) }

// Experiment is one reproduction experiment: an ID, a title, and a Run
// function regenerating its tables.
type Experiment = experiments.Experiment

// ExperimentConfig selects quick or full (paper-sized) scale and the
// base seed.
type ExperimentConfig = experiments.Config

// Table is one experiment's formatted result table.
type Table = experiments.Table

// Experiments returns the registry of reproduction experiments, in
// presentation order.
func Experiments() []Experiment { return experiments.All }

// ExperimentByID finds an experiment by its ID, or nil.
func ExperimentByID(id string) *Experiment { return experiments.ByID(id) }

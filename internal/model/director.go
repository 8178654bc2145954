package model

import (
	"context"
	"errors"
	"fmt"
)

// Director is a model of computation: it defines the execution and
// communication models of a workflow. Setup installs receivers on every
// input port and initializes the actors; Run executes until the workflow
// quiesces, a source-driven run completes, or ctx is cancelled.
type Director interface {
	// Name identifies the model of computation (e.g. "PNCWF", "SCWF").
	Name() string
	// Setup validates the workflow, installs receivers and initializes
	// actors. It must be called exactly once before Run.
	Setup(wf *Workflow) error
	// Run executes the workflow to completion or cancellation.
	Run(ctx context.Context) error
}

// Steppable is implemented by directors whose iteration cycle can be driven
// one step at a time — the hook the multi-workflow global scheduler uses to
// interleave workflow instances (Figure 9 of the paper).
type Steppable interface {
	// Step runs one director iteration and reports whether any work was
	// done. Directors with no ready work return false.
	Step() (bool, error)
}

// ErrNotSetup is returned by Run when Setup has not completed successfully.
var ErrNotSetup = errors.New("model: director not set up")

// ManagerState enumerates the lifecycle of a managed workflow execution
// (multiwf.Instance, driven by the Manager verbs of Figure 9).
type ManagerState int

const (
	// Idle means execution has not started yet.
	Idle ManagerState = iota
	// Running means the workflow is executing.
	Running
	// Paused means execution is suspended and can be resumed.
	Paused
	// Stopped means execution finished or was stopped.
	Stopped
)

// String returns the state name.
func (s ManagerState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Running:
		return "running"
	case Paused:
		return "paused"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("ManagerState(%d)", int(s))
	}
}

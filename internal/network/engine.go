package network

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Engine executes one configured run. Engines register themselves by name
// (RegisterEngine) and are resolved with ParseEngine — the same pattern the
// protocol registry uses — so CLIs, the daemon and the test harness list and
// select engines without a switch per call site. The two built-in engines
// (lockstep, async) live in this package; out-of-package engines (e.g. the
// real-socket wire engine) register from their own init().
//
// Run must honor the full Config contract: validation, the Tracer event
// stream, metrics reconciliation (MessagesSent = MessagesDelivered +
// MessagesLost) and StopEarly. Engines that ignore Config.Scheduler must
// normalize it before building run state so delivery semantics never depend
// on stale fields.
type Engine interface {
	// Name returns the engine's registry name ("lockstep", "async",
	// "wire", ...).
	Name() string
	// Run executes the configured run.
	Run(cfg Config) (*Result, error)
}

// Canonical registry names of the built-in engines. These constants are the
// only place the built-in engine names are spelled; every other layer
// resolves through them.
const (
	EngineLockstep = "lockstep"
	EngineAsync    = "async"
)

// Built-in engines, usable directly as Config.Engine values.
var (
	// Lockstep steps players in ID order in a single goroutine.
	Lockstep Engine = lockstepEngine{}
	// Async relaxes synchronous delivery to a pluggable Scheduler.
	Async Engine = asyncEngine{}
)

var engineRegistry = struct {
	sync.RWMutex
	m map[string]Engine
}{m: make(map[string]Engine)}

func init() {
	RegisterEngine(Lockstep)
	RegisterEngine(Async)
}

// RegisterEngine adds an engine under its Name. Engine packages call it from
// init(); registering an empty name or a duplicate panics, as with
// database/sql drivers.
func RegisterEngine(e Engine) {
	name := e.Name()
	if name == "" {
		panic("network: RegisterEngine with empty name")
	}
	engineRegistry.Lock()
	defer engineRegistry.Unlock()
	if _, dup := engineRegistry.m[name]; dup {
		panic("network: RegisterEngine called twice for " + name)
	}
	engineRegistry.m[name] = e
}

// ParseEngine returns the engine registered under name; the error for an
// unknown name lists the registered engines.
func ParseEngine(name string) (Engine, error) {
	engineRegistry.RLock()
	e, ok := engineRegistry.m[name]
	engineRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("network: unknown engine %q (registered: %s)",
			name, strings.Join(EngineNames(), ", "))
	}
	return e, nil
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	engineRegistry.RLock()
	defer engineRegistry.RUnlock()
	names := make([]string, 0, len(engineRegistry.m))
	for name := range engineRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

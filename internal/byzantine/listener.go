package byzantine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/smt"
)

// Registry keys of the passive listening strategies.
const (
	// ListenerName is the honest-but-curious eavesdropper: it records every
	// payload it sees and otherwise behaves exactly like an honest SMT relay.
	ListenerName = "listener"
	// ListenerQuietName records and drops: a listener that also silences its
	// node, composing the passive threat with the worst-case liveness one.
	ListenerQuietName = "listener-quiet"
)

// ListenLog is the recorded view of one listening coalition: every payload
// delivered to any of its members, in a canonical order. The privacy oracle
// compares logs across paired secret runs, so the rendering must be a pure
// function of what was heard. Safe for concurrent use.
type ListenLog struct {
	mu     sync.Mutex
	keys   []string
	shares []smt.ShareMsg
}

func (l *ListenLog) record(at int, m network.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys = append(l.keys, fmt.Sprintf("%d->%d %s", m.From, at, m.Payload.Key()))
	if sh, ok := m.Payload.(smt.ShareMsg); ok {
		l.shares = append(l.shares, sh)
	}
}

// Keys returns every recorded "from->at key" entry, sorted.
func (l *ListenLog) Keys() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.keys))
	copy(out, l.keys)
	sort.Strings(out)
	return out
}

// View renders the whole recorded view as one canonical string — the unit
// the privacy oracle compares across paired runs.
func (l *ListenLog) View() string { return strings.Join(l.Keys(), "\n") }

// ShareIndices returns the set of SMT share indices the coalition heard.
func (l *ListenLog) ShareIndices() nodeset.Set {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := nodeset.Empty()
	for _, sh := range l.shares {
		idx = idx.Add(sh.Idx)
	}
	return idx
}

// Listener is the passive adversary process: it records every delivered
// payload into its log and forwards SMT shares exactly as an honest relay
// would — validated against the share's own path, from its exact
// predecessor, once — so a listening-only corruption never perturbs the run
// it is eavesdropping on. Everything else is read and dropped, which for
// non-share traffic makes it indistinguishable from Silent.
type Listener struct {
	id        int
	log       *ListenLog
	forward   bool
	forwarded map[string]bool
}

// NewListener corrupts node c with the recording relay. A nil log allocates
// a private one; the privacy battery passes one shared log per coalition.
func NewListener(c int, log *ListenLog, forward bool) *Listener {
	if log == nil {
		log = &ListenLog{}
	}
	return &Listener{id: c, log: log, forward: forward, forwarded: make(map[string]bool)}
}

// Init implements network.Process.
func (*Listener) Init(network.Outbox) {}

// Round implements network.Process.
func (l *Listener) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	for _, m := range inbox {
		l.log.record(l.id, m)
		if !l.forward {
			continue
		}
		sh, ok := m.Payload.(smt.ShareMsg)
		if !ok || l.forwarded[sh.Key()] {
			continue
		}
		pos := -1
		for i, u := range sh.P {
			if u == l.id {
				pos = i
				break
			}
		}
		if pos <= 0 || pos >= len(sh.P)-1 || m.From != sh.P[pos-1] {
			continue
		}
		l.forwarded[sh.Key()] = true
		out(sh.P[pos+1], sh)
	}
	return true
}

// Decision implements network.Process.
func (*Listener) Decision() (network.Value, bool) { return "", false }

// Log exposes the listener's recording, for callers that built it with a
// private log.
func (l *Listener) Log() *ListenLog { return l.log }

// NewListeners corrupts every node of t with a recording relay sharing one
// log — the process overlay for a listening coalition L. forward selects
// between the honest-but-curious relay and the record-and-drop variant.
func NewListeners(t nodeset.Set, log *ListenLog, forward bool) map[int]network.Process {
	if log == nil {
		log = &ListenLog{}
	}
	m := make(map[int]network.Process, t.Len())
	t.ForEach(func(c int) bool {
		m[c] = NewListener(c, log, forward)
		return true
	})
	return m
}

func init() {
	Register(funcStrategy{ListenerName,
		"record every delivered payload, forwarding SMT shares honestly (honest-but-curious)",
		func(in *instance.Instance, c int, _ network.Value, _ int) network.Process {
			return NewListener(c, nil, true)
		}})
	Register(funcStrategy{ListenerQuietName,
		"record every delivered payload and drop everything (listening + silent)",
		func(in *instance.Instance, c int, _ network.Value, _ int) network.Process {
			return NewListener(c, nil, false)
		}})
}

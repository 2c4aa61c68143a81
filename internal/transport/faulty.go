package transport

import (
	"context"
	"strings"
	"sync"
)

// Faulty wraps a Client and runs a schedule over the requests that pass
// through it. It is the one seam through which a test steers or watches
// storage traffic: it reproduces a message order that a crash hook cannot
// reach, such as a slot's two inserts landing on its replicas in opposite
// orders or a reply that is lost after its node applied the request, over
// any transport it wraps.
//
// A schedule is a list of rules. Each rule has:
//   - a match: the op, node and bag substring a request must have, and of
//     those requests the Nth (see Match);
//   - an optional active window: the rule sees requests only after the
//     event Open has fired and before the event Close has;
//   - a when: OnArrival looks at a request before it is passed on,
//     OnReply after the wrapped client has returned;
//   - actions, in this order: Hold waits until an event fires; Fire fires
//     an event; Tap calls back with the node, the request and, on reply,
//     the response; Answer or Err answers in place of passing the request
//     on (on arrival) or in place of the real reply (on reply).
//
// Every rule selects before any acts, and the rules a request selects act
// in the order they were added, on the caller's goroutine. A hold waits
// for its event whatever the call's context: a held request is one on its
// way, which its caller cannot call back. Passed on, it carries that
// context, which may have ended by then.
type Faulty struct {
	Client

	mu     sync.Mutex
	rules  []*rule
	events map[string]chan struct{}
}

// When says at which point of a call a rule looks at it.
type When uint8

const (
	OnArrival When = iota // before the request is passed on
	OnReply               // after the wrapped client returns
)

// Match selects requests: those with Op (0: any op) sent to Node (empty:
// any node) for a bag whose name contains Bag (empty: any bag) — on reply,
// with OK set, only those answered StatusOK — and of these the Nth,
// counting from 1 in the order the rule sees them; Nth 0 selects every one.
type Match struct {
	Op        Op
	Node, Bag string
	Nth       int
	OK        bool
}

// Rule is one entry of a schedule. A rule with no action still reports,
// through the channel Add returns, that it selected a request.
type Rule struct {
	Match
	When        When
	Open, Close string    // active window; empty Open: from the start, empty Close: for good
	Hold        string    // hold the call until this event fires
	Fire        string    // fire this event
	Answer      *Response // answer with this...
	Err         error     // ...or with this error
	// Tap is called with the node, the request and the response, which
	// is nil on arrival.
	Tap func(node string, req *Request, resp *Response)
}

type rule struct {
	Rule
	seen     int           // requests matched so far
	selected chan struct{} // closed when the rule first selects a request
	wait     chan struct{} // the Hold event's, if any
}

// NewFaulty wraps c. With no rules it passes every call through.
func NewFaulty(c Client) *Faulty {
	return &Faulty{Client: c, events: make(map[string]chan struct{})}
}

// Add appends r to the schedule. The returned channel closes when r first
// selects a request, before it acts on it: for a hold, once the call is
// held.
func (f *Faulty) Add(r Rule) <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	rr := &rule{Rule: r, selected: make(chan struct{})}
	if r.Hold != "" {
		rr.wait = f.event(r.Hold)
	}
	f.rules = append(f.rules, rr)
	return rr.selected
}

// event returns the channel that firing name closes. Callers hold f.mu.
func (f *Faulty) event(name string) chan struct{} {
	ch, ok := f.events[name]
	if !ok {
		ch = make(chan struct{})
		f.events[name] = ch
	}
	return ch
}

// fired reports whether event name has fired. Callers hold f.mu.
func (f *Faulty) fired(name string) bool {
	select {
	case <-f.event(name):
		return true
	default:
		return false
	}
}

// Fire fires a named event: every call held for it proceeds. Firing an
// event twice is a no-op.
func (f *Faulty) Fire(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.fired(name) {
		close(f.event(name))
	}
}

// selects counts req if r matches it inside its window, and reports
// whether it is one r selects. Callers hold f.mu.
func (f *Faulty) selects(r *rule, node string, req *Request, resp *Response) bool {
	m := r.Match
	switch {
	case m.Op != 0 && req.Op != m.Op, m.Node != "" && node != m.Node, !strings.Contains(req.Bag, m.Bag),
		m.OK && (resp == nil || resp.Status != StatusOK),
		r.Open != "" && !f.fired(r.Open), r.Close != "" && f.fired(r.Close):
		return false
	}
	r.seen++
	if r.seen == max(m.Nth, 1) {
		close(r.selected)
	}
	return m.Nth == 0 || r.seen == m.Nth
}

// apply runs the rules of when that select req and returns what the
// call is to report: on arrival, nil and nil unless a rule answered.
func (f *Faulty) apply(when When, node string, req *Request, resp *Response, err error) (*Response, error) {
	var acts []*rule
	f.mu.Lock()
	for _, r := range f.rules {
		if r.When == when && f.selects(r, node, req, resp) {
			acts = append(acts, r)
		}
	}
	f.mu.Unlock()
	for _, r := range acts {
		if r.wait != nil {
			<-r.wait
		}
		if r.Fire != "" {
			f.Fire(r.Fire)
		}
		if r.Tap != nil {
			r.Tap(node, req, resp)
		}
		if r.Answer != nil || r.Err != nil {
			resp, err = r.Answer, r.Err
		}
	}
	return resp, err
}

// Call implements Client: it applies the arrival rules, passes the request
// on unless one of them answered, and applies the reply rules.
func (f *Faulty) Call(ctx context.Context, node string, req *Request) (*Response, error) {
	if resp, err := f.apply(OnArrival, node, req, nil, nil); resp != nil || err != nil {
		return resp, err
	}
	resp, err := f.Client.Call(ctx, node, req)
	return f.apply(OnReply, node, req, resp, err)
}

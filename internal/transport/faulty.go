package transport

import (
	"context"
	"sync"
)

// Faulty wraps a Client to reorder messages on purpose: it holds a chosen
// request until a named event fires, and fires events when chosen requests
// complete. A test uses it to reproduce one message order that a crash
// hook cannot reach, such as a slot's two inserts landing on its replicas
// in opposite orders, over any transport it wraps.
type Faulty struct {
	Client

	mu     sync.Mutex
	rules  []*rule
	events map[string]chan struct{}
}

// Match selects one request: the Nth (counting from 1; 0 means the first)
// of those with Op sent to Node for Bag (empty: any bag).
type Match struct {
	Op   Op
	Node string
	Bag  string
	Nth  int
}

// rule acts on the request its match selects: it holds the request until
// the event `until`, or fires the event `after` once it completes.
type rule struct {
	m            Match
	until, after string
	held         chan struct{}
	seen         int // requests of the match's op, node and bag so far
}

// selects counts req if it has the match's op, node and bag, and reports
// whether it is the one the match selects.
func (r *rule) selects(node string, req *Request) bool {
	m := r.m
	if req.Op != m.Op || node != m.Node || (m.Bag != "" && req.Bag != m.Bag) {
		return false
	}
	r.seen++
	return r.seen == max(m.Nth, 1)
}

// NewFaulty wraps c. With no rules it passes every call through.
func NewFaulty(c Client) *Faulty {
	return &Faulty{Client: c, events: make(map[string]chan struct{})}
}

// Hold holds the request m selects until event fires. The returned
// channel closes when that request is held, that is, when it has been
// sent to the wrapper and not yet passed on.
func (f *Faulty) Hold(m Match, event string) <-chan struct{} {
	r := &rule{m: m, until: event, held: make(chan struct{})}
	f.add(r)
	return r.held
}

// FireAfter fires event once the request m selects has completed,
// whatever its outcome.
func (f *Faulty) FireAfter(m Match, event string) { f.add(&rule{m: m, after: event}) }

func (f *Faulty) add(r *rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, r)
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

// Fire fires a named event: every request held for it proceeds. Firing an
// event twice is a no-op.
func (f *Faulty) Fire(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := f.event(name)
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// Call implements Client: it applies the rules, then calls the wrapped
// client. A request several holds select waits for all their events; a
// held call returns early only if ctx ends.
func (f *Faulty) Call(ctx context.Context, node string, req *Request) (*Response, error) {
	var waits []chan struct{}
	var after []string
	f.mu.Lock()
	for _, r := range f.rules {
		switch {
		case !r.selects(node, req):
		case r.held != nil:
			waits = append(waits, f.event(r.until))
			close(r.held)
		default:
			after = append(after, r.after)
		}
	}
	f.mu.Unlock()
	for _, w := range waits {
		select {
		case <-w:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	resp, err := f.Client.Call(ctx, node, req)
	for _, e := range after {
		f.Fire(e)
	}
	return resp, err
}

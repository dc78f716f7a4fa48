package server

import (
	"qoserve/internal/metrics"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// ledgerMinCap is the retained-outcome storage a ledger starts with.
const ledgerMinCap = 64

// outcomeLedger holds the frozen outcomes of finished requests for
// /metrics and /v1/stats, which need only lifetime per-class tallies and
// the outcomes that arrived inside the metrics window. An outcome that
// ages out of the window folds into its class tally and leaves recent, so
// memory and scrape cost follow the window's traffic, not lifetime
// traffic. Guarded by Server.finMu.
type outcomeLedger struct {
	window sim.Time
	// aged tallies, by class, the outcomes folded out of recent.
	aged map[string]*metrics.Tally
	// recent holds every finished outcome not yet folded, in completion
	// order; all those still inside the window are among them.
	recent []metrics.Outcome
}

func newOutcomeLedger(window sim.Time, classes []qos.Class) outcomeLedger {
	l := outcomeLedger{
		window: window,
		aged:   make(map[string]*metrics.Tally, len(classes)),
		recent: make([]metrics.Outcome, 0, ledgerMinCap),
	}
	for _, c := range classes {
		l.aged[c.Name] = &metrics.Tally{}
	}
	return l
}

// add records one finished outcome at virtual time now. A full buffer is
// pruned first; when pruning frees less than half of it, it doubles, so a
// steady load reuses one buffer and pruning is amortized O(1) per outcome.
func (l *outcomeLedger) add(o metrics.Outcome, now sim.Time) {
	if len(l.recent) == cap(l.recent) {
		l.prune(now)
		if 2*len(l.recent) > cap(l.recent) {
			grown := make([]metrics.Outcome, len(l.recent), 2*cap(l.recent))
			copy(grown, l.recent)
			l.recent = grown
		}
	}
	l.recent = append(l.recent, o)
}

// prune folds every outcome that arrived at or before now-window into its
// class tally, compacting recent in place. The cutoff only advances, so a
// folded outcome could never re-enter a later window.
func (l *outcomeLedger) prune(now sim.Time) {
	cutoff := now - l.window
	keep := l.recent[:0]
	for _, o := range l.recent {
		if o.Arrival > cutoff {
			keep = append(keep, o)
		} else {
			l.aged[o.Class].Add(o)
		}
	}
	clear(l.recent[len(keep):])
	l.recent = keep
}

// outcomeView is one consistent read of every accepted request's outcome.
type outcomeView struct {
	// lifetime tallies every accepted request, finished or live, by class.
	lifetime map[string]metrics.Tally
	// recent holds the outcomes of requests that arrived inside the
	// metrics window.
	recent *metrics.Summary
}

// total sums the lifetime tallies over classes.
func (v outcomeView) total() metrics.Tally {
	var t metrics.Tally
	for _, c := range v.lifetime {
		t.Requests += c.Requests
		t.Judged += c.Judged
		t.Violated += c.Violated
	}
	return t
}

// view combines the ledger with the live requests' outcomes as of now.
func (l *outcomeLedger) view(now sim.Time, live map[uint64]*request.Request, replicas int) outcomeView {
	v := outcomeView{
		lifetime: make(map[string]metrics.Tally, len(l.aged)),
		recent:   &metrics.Summary{End: now, Replicas: replicas},
	}
	for c, t := range l.aged {
		v.lifetime[c] = *t
	}
	cutoff := now - l.window
	add := func(o metrics.Outcome) {
		t := v.lifetime[o.Class]
		t.Add(o)
		v.lifetime[o.Class] = t
		if o.Arrival > cutoff {
			v.recent.Outcomes = append(v.recent.Outcomes, o)
		}
	}
	for _, o := range l.recent {
		add(o)
	}
	for _, r := range live {
		add(metrics.OutcomeOf(r, now))
	}
	return v
}

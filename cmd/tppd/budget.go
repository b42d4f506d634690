package main

// Memory-budget enforcement for the session table.
//
// Each resident session reports an approximate byte footprint (graph rows +
// motif index + warm state, from tpp.MemFootprint, plus its label table).
// The table tracks those bytes in LRU order against the -mem-budget cap.
// When it runs over, the coldest sessions whose locks can be taken without
// waiting are spilled to their -data-dir files until the budget fits again.
// Create requests that would not fit even after spilling everything
// spillable are rejected with 429: admission control, not an error — the
// client retries after Retry-After.
//
// Enforcement runs while the triggering request holds its own record slot
// and a selection slot, so victims are only ever taken by try-lock: a busy
// victim is skipped, the budget stays temporarily over, and the next
// footprint change tries again. That trade (bounded overage, never a
// lock-order deadlock) is deliberate.

import "repro/internal/graph"

// sessionFootprint measures a session's resident bytes: the Protector's
// own estimate plus the label table the record carries (cached on the
// record, so a delta without node churn does not re-walk every label).
// Requires the same exclusivity as any session operation (the caller holds
// the record slot, or the record is not yet published).
func sessionFootprint(rec *sessionRecord) int64 {
	if rec.labBytes == 0 {
		rec.labBytes = labelingFootprint(rec.lab)
	}
	return rec.session.MemFootprint() + rec.labBytes
}

// labelingFootprint estimates the label table's bytes: each name is stored
// twice (slice + map key) plus map/slice entry overhead.
func labelingFootprint(lab *graph.Labeling) int64 {
	var names int64
	for _, name := range lab.ToName {
		names += int64(len(name))
	}
	return 2*names + int64(len(lab.ToName))*64
}

// noteFootprint re-measures rec (the caller holds its slot) and enforces
// the budget. Called after every footprint-changing operation on a
// published session: delta, protect (the first run builds the index).
func (s *Server) noteFootprint(rec *sessionRecord) {
	s.accountSession(rec, sessionFootprint(rec))
}

// accountSession records a pre-measured footprint for rec and reclaims the
// budget back under its cap, never spilling rec itself.
func (s *Server) accountSession(rec *sessionRecord, bytes int64) {
	s.budget.Set(rec.id, bytes, rec)
	s.reclaimBudget(rec.id)
}

// admitSession reserves need bytes for a new record under its id, then
// reclaims until the budget, reservation included, fits. The caller holds
// rec's slot, so no concurrent reclaimer can pick the unpublished record as
// a victim, and a concurrent delta or rehydrate that grows the budget
// reclaims room for the reservation too instead of turning this create into
// a spurious 429. false means the budget is still over with nothing left to
// spill; the reservation is dropped.
func (s *Server) admitSession(rec *sessionRecord, need int64) bool {
	s.budget.Set(rec.id, need, rec)
	if s.reclaimBudget(rec.id) {
		return true
	}
	s.budget.Remove(rec.id)
	return false
}

// reclaimBudget spills cold sessions until the tracked bytes fit the cap
// and reports whether they do (always true with no cap). exclude — the
// session the caller is serving — is never a victim, and neither is any
// session whose slot cannot be taken without waiting: a busy session is by
// definition not cold, and waiting for it from under another session's
// slot would be a lock-order inversion.
func (s *Server) reclaimBudget(exclude string) bool {
	b := s.budget
	if b.Cap() <= 0 {
		return true
	}
	var tried map[string]bool
	for b.Used() > b.Cap() {
		id, v, _, ok := b.Coldest(func(id string) bool { return id == exclude || tried[id] })
		if !ok {
			return b.Used() <= b.Cap()
		}
		victim := v.(*sessionRecord)
		select {
		case victim.slot <- struct{}{}:
		default:
			if tried == nil {
				tried = make(map[string]bool)
			}
			tried[id] = true
			continue
		}
		if victim.gone {
			// remove already ran for this record; the budget entry is stale.
			b.Remove(id)
			<-victim.slot
			continue
		}
		// A cap is only ever set with durability on (ConfigureDurability),
		// so evict always spills what the log lacks.
		s.evict(victim)
		<-victim.slot
		s.metrics.sessionsSpilled.Inc()
	}
	return true
}

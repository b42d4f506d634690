package main

// Memory-budget enforcement for the sharded session tier.
//
// Each resident session reports an approximate byte footprint (graph rows +
// motif index + warm state, from tpp.MemFootprint, plus its label table).
// Every shard tracks those bytes in LRU order against its slice of the
// -mem-budget cap. When a shard runs over, the coldest sessions whose locks
// can be taken without waiting are spilled to disk (discarded when
// durability is off — the same semantics as TTL eviction)
// until the shard fits again. Create requests that would not fit even after
// spilling everything spillable are rejected with 429: admission control,
// not an error — the client retries after Retry-After.
//
// Enforcement runs while the triggering request holds its own record slot
// and shard work slot, so victims are only ever taken by try-lock: a busy
// victim is skipped, the shard stays temporarily over budget, and the next
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
// its shard's budget. Called after every footprint-changing operation:
// create, delta, protect (the first run builds the index), rehydrate.
func (s *Server) noteFootprint(rec *sessionRecord) {
	if rec.home == nil {
		return
	}
	s.accountSession(rec, sessionFootprint(rec))
}

// accountSession records a pre-measured footprint for rec and reclaims the
// shard back under budget, never spilling rec itself.
func (s *Server) accountSession(rec *sessionRecord, bytes int64) {
	sh := rec.home
	if sh == nil {
		return
	}
	sh.budget.Set(rec.id, bytes, rec)
	s.reclaimBudget(sh, 0, rec.id)
}

// reclaimBudget spills cold sessions until the shard's tracked bytes plus
// need fit the cap (0 need = plain over-budget enforcement; no-op with no
// cap). exclude — the session the caller is serving — is never a victim,
// and neither is any session whose slot cannot be taken without waiting:
// a busy session is by definition not cold, and waiting for it from under
// another session's slot would be a lock-order inversion.
func (s *Server) reclaimBudget(sh *sessionShard, need int64, exclude string) {
	b := sh.budget
	if b.Cap() <= 0 {
		return
	}
	var tried map[string]bool
	for b.Used()+need > b.Cap() {
		id, v, _, ok := b.Coldest(func(id string) bool { return id == exclude || tried[id] })
		if !ok {
			return
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
		if s.sessions.spill != nil {
			s.sessions.spill(victim)
		}
		s.sessions.remove(victim)
		<-victim.slot
		s.metrics.sessionsSpilled.Inc()
		sh.spills.Inc()
	}
}

package core

// Measurement-based dynamic load balancing (paper sections II-J and V-B),
// following the Charm++ AtSync protocol:
//
//  1. The runtime accumulates wall-clock entry-method time per element.
//  2. Every element of a collection calls AtSync() when ready for LB.
//  3. When all of a PE's elements of the collection are at sync, the PE
//     sends its {element -> load} statistics to the collection's root PE.
//  4. Once stats for every element have arrived, the root runs the
//     configured LBStrategy, broadcasts the resulting migration orders,
//     and waits for each migration to be acknowledged by the receiving PE.
//  5. The root broadcasts resume; every PE clears sync state, zeroes loads,
//     and invokes each local element's ResumeFromSync entry method.

type lbRootState struct {
	objs    []LBObject
	count   int
	pending int // outstanding migration acks
	// sparse-array DoneInserting count protocol piggybacks on this state
	insGot int
	insSum int
}

func (p *peState) lbRootFor(cid CID) *lbRootState {
	st := p.lbRoot[cid]
	if st == nil {
		st = &lbRootState{}
		p.lbRoot[cid] = st
	}
	return st
}

// lbMaybeSendStats sends this PE's load statistics to the root once every
// local element of the collection has reached AtSync.
func (p *peState) lbMaybeSendStats(coll *localColl) {
	if coll.lbStatsSent || len(coll.elems) == 0 {
		return
	}
	for _, el := range coll.elems {
		if !el.atSync.Load() {
			return
		}
	}
	objs := make([]LBObject, 0, len(coll.elems))
	for _, el := range coll.elems {
		objs = append(objs, LBObject{Key: el.key, PE: p.pe, Load: el.loadDur().Seconds()})
	}
	coll.lbStatsSent = true
	p.rt.send(rootPE(p.rt, collCID(coll)), &Message{
		Kind: mLBStats, CID: collCID(coll), Src: p.pe,
		Ctl: &lbStatsMsg{CID: collCID(coll), PE: p.pe, Objs: objs},
	})
}

func (p *peState) lbRootStats(m *Message) {
	coll := p.colls[m.CID]
	if coll == nil {
		p.pendingColl[m.CID] = append(p.pendingColl[m.CID], m)
		return
	}
	sm := m.Ctl.(*lbStatsMsg)
	st := p.lbRootFor(m.CID)
	st.objs = append(st.objs, sm.Objs...)
	st.count += len(sm.Objs)
	if coll.total < 0 || st.count < coll.total {
		return
	}
	objs := st.objs
	st.objs = nil
	st.count = 0
	moves := map[string]PE{}
	if strat := p.rt.cfg.LB; strat != nil {
		assign := strat.Assign(objs, p.rt.totalPEs)
		for _, o := range objs {
			if dest, ok := assign[o.Key]; ok && dest != o.PE {
				moves[o.Key] = dest
			}
		}
	}
	if tr := p.rt.cfg.Trace; tr != nil {
		tr.LB(p.lpe(), tr.Since(), len(moves))
	}
	if len(moves) == 0 {
		p.rt.bcastAllPEs(&Message{Kind: mLBResume, CID: m.CID, Src: p.pe, Ctl: &lbResumeMsg{CID: m.CID}})
		return
	}
	st.pending = len(moves)
	p.rt.bcastAllPEs(&Message{Kind: mLBMoves, CID: m.CID, Src: p.pe, Ctl: &lbMovesMsg{CID: m.CID, Moves: moves}})
}

// lbApplyMoves migrates this PE's elements named in the move list.
func (p *peState) lbApplyMoves(lm *lbMovesMsg) {
	coll := p.colls[lm.CID]
	if coll == nil {
		return // we host nothing of this collection
	}
	var moving []*element
	for key, dest := range lm.Moves {
		if el, ok := coll.elems[key]; ok && !el.dead && dest != p.pe {
			el.lbMove = true
			el.migrateTo.Store(int32(dest))
			moving = append(moving, el)
		}
	}
	for _, el := range moving {
		if coll.ct.stealable {
			// Stealable element: acquire the run grant before migrating (the
			// element may be executing on a sibling PE right now). If another
			// PE holds it, its release re-check observes the migrateTo we just
			// stored and routes the grant back here to finish the move.
			el.ensureRunq()
			if p.grabGrant(el) {
				p.runGrant(el)
			}
			continue
		}
		p.migrateOut(el)
	}
}

func (p *peState) lbRootAck(cid CID) {
	st := p.lbRootFor(cid)
	st.pending--
	if st.pending == 0 {
		p.rt.bcastAllPEs(&Message{Kind: mLBResume, CID: cid, Src: p.pe, Ctl: &lbResumeMsg{CID: cid}})
	}
}

// lbResume clears sync state and invokes ResumeFromSync on local elements.
func (p *peState) lbResume(cid CID) {
	coll := p.colls[cid]
	if coll == nil {
		return
	}
	coll.lbStatsSent = false
	els := make([]*element, 0, len(coll.elems))
	for _, el := range coll.elems {
		el.atSync.Store(false)
		el.userLoad.Store(false)
		el.setLoad(0)
		els = append(els, el)
	}
	if !coll.ct.hasResume {
		return
	}
	info := coll.ct.byName["ResumeFromSync"]
	for _, el := range els {
		if el.dead {
			continue
		}
		m := &Message{Kind: mInvoke, CID: cid, Idx: el.idx, MID: info.id, Method: "ResumeFromSync", Src: p.pe}
		if coll.ct.stealable {
			// Stealable element: ResumeFromSync rides the run-grant path like
			// any other invoke (it may be executing on a sibling right now).
			p.runqPush(el, m)
			continue
		}
		p.invokeEMInner(el, info, m)
		p.recheck(el)
	}
}

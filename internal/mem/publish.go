package mem

import (
	"sdcmd/internal/lint"
)

// publishPass checks release/acquire publication protocols: when a
// consumer atomically loads a scalar and then reads indexed or
// pointed-to data, that scalar publishes the data. The pass infers
// (publisher, payload) pairs from consumer-side evidence — an atomic
// load of P followed in the same function by a pure element/pointee
// read of a mutable class D — and then enforces both halves:
//
//   - producer obligation: no function may write a payload element of
//     D after atomically storing P; the initializing writes must all
//     happen before the publishing store, or a consumer that observes
//     the new P reads uninitialized payload.
//   - consumer obligation: a function that loads P and reads payload D
//     must perform the load first; a payload read sequenced before the
//     first load is not ordered after the producer's writes.
//
// The owner-push/steal-half deque of the testdata brokendeque fixture
// is the motivating instance: push must store the slot before
// publishing tail, and take must load head/tail before copying slots
// out.
type publishPass struct{ sh *shared }

func (p *publishPass) Name() string { return "publication-safety" }

func (p *publishPass) Doc() string {
	return "data published through an atomic store must be fully written before the store and re-loaded through the atomic before use"
}

// pubPair is one inferred protocol: loads of pub order reads of
// payload elements.
type pubPair struct {
	pub, payload string
	witness      string // consumer site "file:line" proving the pair
}

func (p *publishPass) Analyze(pkgs []*lint.Package) []lint.Finding {
	ix := p.sh.indexFor(pkgs)

	// Pair inference from consumer evidence. Publishers are non-element
	// scalar atomics; payloads are classes with element/pointee writes
	// outside constructors (data someone actually initializes).
	pairs := map[[2]string]*pubPair{}
	for _, fn := range ix.fns {
		for i, load := range fn.accesses {
			if !load.atomic || load.elem || !load.read || load.write {
				continue
			}
			for _, rd := range fn.accesses[i+1:] {
				if !rd.elem || !rd.read || rd.write || rd.class == load.class {
					continue
				}
				ci := ix.classes[rd.class]
				if ci == nil || !ci.mutableElem {
					continue
				}
				k := [2]string{load.class, rd.class}
				if pairs[k] == nil {
					pairs[k] = &pubPair{pub: load.class, payload: rd.class, witness: ix.site(rd.pos)}
				}
			}
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	payloadsOf := map[string]map[string]*pubPair{}
	for _, pr := range pairs {
		m := payloadsOf[pr.pub]
		if m == nil {
			m = map[string]*pubPair{}
			payloadsOf[pr.pub] = m
		}
		m[pr.payload] = pr
	}

	var out []lint.Finding
	for _, fn := range ix.fns {
		// Producer obligation: payload element writes sequenced after an
		// atomic store of the publisher, in the same function.
		for i, st := range fn.accesses {
			if !st.atomic || st.elem || !st.write {
				continue
			}
			payloads := payloadsOf[st.class]
			if payloads == nil {
				continue
			}
			for _, wr := range fn.accesses[i+1:] {
				if !wr.elem || !wr.write || wr.ctor {
					continue
				}
				pr := payloads[wr.class]
				if pr == nil {
					continue
				}
				out = append(out, ix.finding(p.Name(), wr.pos,
					shortClass(wr.class)+" element written after the atomic store of "+
						shortClass(st.class)+" at "+ix.site(st.pos)+" that publishes it (consumer evidence: "+
						pr.witness+"); move the write before the store"))
			}
		}
		// Consumer obligation: in a function that both loads P and reads
		// payload D, every payload read must follow the first load.
		firstLoad := map[string]*access{}
		var loadOrder []string
		for _, a := range fn.accesses {
			if a.atomic && !a.elem && a.read && !a.write && firstLoad[a.class] == nil {
				firstLoad[a.class] = a
				loadOrder = append(loadOrder, a.class)
			}
		}
		for _, pub := range loadOrder {
			load := firstLoad[pub]
			payloads := payloadsOf[pub]
			if payloads == nil {
				continue
			}
			for _, rd := range fn.accesses {
				if rd.pos >= load.pos || !rd.elem || !rd.read || rd.write || rd.ctor {
					continue
				}
				if payloads[rd.class] == nil {
					continue
				}
				out = append(out, ix.finding(p.Name(), rd.pos,
					shortClass(rd.class)+" element read before the atomic load of "+
						shortClass(pub)+" at "+ix.site(load.pos)+" that publishes it; load through the atomic first"))
			}
		}
	}

	out = sortFindings(out)
	return dedupFindings(out)
}

// dedupFindings drops exact duplicates (same position, same message)
// from a sorted list; they arise when several inferred pairs witness
// one defect.
func dedupFindings(fs []lint.Finding) []lint.Finding {
	if len(fs) < 2 {
		return fs
	}
	keep := fs[:1]
	for _, f := range fs[1:] {
		last := keep[len(keep)-1]
		if f.File == last.File && f.Line == last.Line && f.Col == last.Col && f.Message == last.Message {
			continue
		}
		keep = append(keep, f)
	}
	return keep
}

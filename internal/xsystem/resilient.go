package xsystem

import (
	"fmt"
	"slices"

	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/frame"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// This file implements the fault-tolerant execution mode. The plain
// Classify treats the link as infallible: values cross instantly and
// nothing fails. ClassifyOver instead moves every crossing payload
// through a Transport that may drop it (a lossy wireless.Channel, a
// fault-injected faults.Link), retries with capped exponential backoff
// under a per-event modeled deadline budget, and keeps computing with
// whatever arrived: a cell with a lost input is itself lost, except the
// fusion cell, which fuses the base-classifier scores that did arrive.

// Transport moves one payload across the link, possibly failing.
// *wireless.Channel and *faults.Link implement it; a nil Transport is
// the paper's infallible link.
type Transport interface {
	Send(dataBits int64) (wireless.Transfer, error)
}

// ValueTransport is a Transport that understands payload structure: it
// moves dataBits carrying `values` equal-width code words and reports
// how the payload actually arrived — which values were corrupted,
// smeared or lost — so the functional simulation can decode exactly
// what the receiver saw. *faults.Link implements it; plain Transports
// fall back to the opaque Send path.
type ValueTransport interface {
	Transport
	SendValues(dataBits int64, values int, fr *faults.Framing) (wireless.Transfer, *frame.RxReport, error)
}

// ResilientOptions configures one ClassifyOver run.
type ResilientOptions struct {
	// Transport carries crossing payloads; nil never fails.
	Transport Transport
	// Plan supplies the brownout / aggregator-stall state; the link
	// faults are the Transport's business. May be nil.
	Plan *faults.Plan
	// Clock is the modeled time source (shared with Transport and
	// Breaker). May be nil when neither Plan nor Breaker is used.
	Clock *faults.Clock
	// Policy sets deadline, retry and fusion-quorum knobs.
	Policy faults.Policy
	// Breaker, when set, records per-transfer outcomes (the caller
	// decides whether to attempt the event at all while it is open).
	Breaker *faults.Breaker
	// Integrity, when set, arms per-frame sequencing + CRC on every
	// crossing payload: corruption is detected and retried instead of
	// silently consumed, residual frame loss is imputed per its policy,
	// and every frame pays frame.IntegrityBits of envelope on the air
	// (also charged on the nil transport, so the analytic energy answer
	// matches). Nil keeps the bare legacy wire format.
	Integrity *faults.Framing
}

func (o *ResilientOptions) imputePolicy() frame.ImputePolicy {
	if o.Integrity == nil {
		return frame.HoldLast
	}
	return o.Integrity.Impute
}

func (o *ResilientOptions) now() float64 {
	if o.Clock == nil {
		return 0
	}
	return o.Clock.Now()
}

// Outcome reports how one resilient classification went.
type Outcome struct {
	// Label is the predicted class (0 or 1).
	Label int
	// Score is the fused decision value the label was cut from.
	Score float64
	// Delivered is true when the result is available at the
	// aggregator; false when it was computed on-sensor but the result
	// payload could not cross (sensor-local result).
	Delivered bool
	// Complete is true when every cell computed and every crossing
	// payload arrived — a full-fidelity classification.
	Complete bool
	// PartialFusion is true when the fusion cell used a strict subset
	// of the base-classifier scores.
	PartialFusion bool
	// VotesUsed / VotesTotal count the base scores fused vs trained.
	VotesUsed, VotesTotal int
	// LostTransfers counts payloads that exhausted their retry budget;
	// SkippedTransfers counts payloads abandoned without an attempt
	// after the deadline budget ran out; Retries counts re-sends.
	LostTransfers, SkippedTransfers, Retries int
	// TransfersOK counts crossing payloads that arrived (first try or
	// after retries) — together with Retries and LostTransfers it
	// reconstructs the per-attempt delivery rate the channel showed.
	TransfersOK int
	// HardOutage is true when at least one attempt failed because the
	// link was down (faults.ErrLinkDown), as opposed to packet loss.
	HardOutage bool
	// SensorEnergy is the modeled energy (J) the sensor node actually
	// spent on this event: sensing, the compute of every sensor cell
	// that ran, and the radio cost of every attempt — including retries
	// and partially-charged failures — on the sensor side of the link.
	SensorEnergy float64
	// SpentSeconds is the modeled time the event consumed: compute,
	// air time of every attempt, backoff waits and stall waits.
	SpentSeconds float64
	// DeadlineExceeded is true when the budget ran out mid-event.
	DeadlineExceeded bool

	// FramesSent counts transceiver frames across all payloads (framed
	// transports); CorruptFrames of those were CRC-rejected and retried,
	// CorruptDelivered carried bit errors the transport could not detect
	// (bare wire only), DuplicateFrames and ReorderedFrames arrived more
	// than once or out of order, and LostFrames died beyond the per-frame
	// retry budget.
	FramesSent, CorruptFrames, CorruptDelivered  int
	DuplicateFrames, ReorderedFrames, LostFrames int
	// WireValues counts the values that crossed the link; ImputedValues
	// of those were reconstructed (lost with their frames) rather than
	// delivered. Their ratio is the admission gate's imputation load.
	WireValues, ImputedValues int
}

// NoResultError reports a resilient classification that could not
// produce any label — too many payloads lost, or the whole pipeline
// unavailable. Cause (when set) is the last transfer failure, so
// errors.As reaches *wireless.ErrDropped / *faults.ErrLinkDown.
type NoResultError struct {
	Cause   error
	Outcome Outcome
}

func (e *NoResultError) Error() string {
	msg := "xsystem: resilient pipeline produced no classification"
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *NoResultError) Unwrap() error { return e.Cause }

// run is the per-event budget and transfer bookkeeping.
type run struct {
	opt     *ResilientOptions
	out     *Outcome
	link    wireless.Model // datasheet costs for the nil transport
	lastErr error
	exhaust bool
}

func (r *run) deadline() float64 { return r.opt.Policy.Deadline }

func (r *run) overBudget(extra float64) bool {
	return r.deadline() > 0 && r.out.SpentSeconds+extra > r.deadline()
}

// send moves bits through the transport with retry + backoff under the
// remaining budget; it reports whether the payload arrived. fromSensor
// says which side of the link the sensor node is on for this payload:
// true charges the sensor the transmit energy of every attempt, false
// the receive energy.
func (r *run) send(bits int64, fromSensor bool) bool {
	if r.opt.Transport == nil {
		// The infallible link never drops, but the payload still goes on
		// the air: charge the datasheet cost so Outcome.SensorEnergy
		// agrees with the analytic per-event model.
		r.chargeClean(bits, fromSensor)
		r.out.TransfersOK++
		return true
	}
	if r.exhaust {
		r.out.SkippedTransfers++
		return false
	}
	for attempt := 0; ; attempt++ {
		tr, err := r.opt.Transport.Send(bits)
		r.out.SpentSeconds += tr.Delay
		if fromSensor {
			r.out.SensorEnergy += tr.TxEnergy
		} else {
			r.out.SensorEnergy += tr.RxEnergy
		}
		if err == nil {
			r.out.TransfersOK++
			if r.opt.Breaker != nil {
				r.opt.Breaker.RecordSuccess()
			}
			return true
		}
		r.lastErr = err
		if faults.IsLinkDown(err) {
			r.out.HardOutage = true
		}
		if attempt >= r.opt.Policy.MaxRetries {
			break
		}
		wait := r.opt.Policy.Backoff.Delay(attempt)
		if r.overBudget(wait) {
			r.exhaust = true
			r.out.DeadlineExceeded = true
			break
		}
		r.out.SpentSeconds += wait
		r.out.Retries++
	}
	if r.opt.Breaker != nil {
		r.opt.Breaker.RecordFailure()
	}
	r.out.LostTransfers++
	return false
}

// chargeClean accounts the datasheet cost of one payload on the
// infallible link, including the integrity envelope when framing is on.
func (r *run) chargeClean(bits int64, fromSensor bool) {
	tr := r.link.Cost(bits)
	if r.opt.Integrity != nil {
		eb := wireless.Packets(bits) * frame.IntegrityBits
		tr.WireBits += eb
		tr.TxEnergy += float64(eb) * r.link.TxJPerBit
		tr.RxEnergy += float64(eb) * r.link.RxJPerBit
		tr.Delay += float64(eb) / r.link.RateBps
	}
	r.out.SpentSeconds += tr.Delay
	if fromSensor {
		r.out.SensorEnergy += tr.TxEnergy
	} else {
		r.out.SensorEnergy += tr.RxEnergy
	}
}

// sendPayload is send for structured payloads: when the transport is
// value-aware it reports how the payload arrived (corruption, smears,
// values to impute); otherwise it degrades to the opaque path with a
// nil report. The policy-level retry loop, backoff, deadline budget and
// breaker accounting are identical to send.
func (r *run) sendPayload(bits int64, values int, fromSensor bool) (*frame.RxReport, bool) {
	if r.opt.Transport == nil {
		r.chargeClean(bits, fromSensor)
		r.out.TransfersOK++
		r.out.WireValues += values
		return nil, true
	}
	vt, isVT := r.opt.Transport.(ValueTransport)
	if !isVT {
		return nil, r.send(bits, fromSensor)
	}
	if r.exhaust {
		r.out.SkippedTransfers++
		return nil, false
	}
	for attempt := 0; ; attempt++ {
		tr, rx, err := vt.SendValues(bits, values, r.opt.Integrity)
		r.out.SpentSeconds += tr.Delay
		if fromSensor {
			r.out.SensorEnergy += tr.TxEnergy
		} else {
			r.out.SensorEnergy += tr.RxEnergy
		}
		if rx != nil {
			r.out.FramesSent += rx.Frames
			r.out.CorruptFrames += rx.CorruptDetected
			r.out.CorruptDelivered += rx.CorruptDelivered
			r.out.DuplicateFrames += rx.Duplicates
			r.out.ReorderedFrames += rx.Reordered
			r.out.LostFrames += rx.LostFrames
		}
		if err == nil {
			r.out.TransfersOK++
			r.out.WireValues += values
			if r.opt.Breaker != nil {
				r.opt.Breaker.RecordSuccess()
			}
			return rx, true
		}
		r.lastErr = err
		if faults.IsLinkDown(err) {
			r.out.HardOutage = true
		}
		if attempt >= r.opt.Policy.MaxRetries {
			break
		}
		wait := r.opt.Policy.Backoff.Delay(attempt)
		if r.overBudget(wait) {
			r.exhaust = true
			r.out.DeadlineExceeded = true
			break
		}
		r.out.SpentSeconds += wait
		r.out.Retries++
	}
	if r.opt.Breaker != nil {
		r.opt.Breaker.RecordFailure()
	}
	r.out.LostTransfers++
	return nil, false
}

// xfer memoizes one crossing payload: it is sent at most once per
// event, however many consumers read it. rx (when the transport is
// value-aware) pins what the receive side saw; counted guards the
// one-time imputation tally.
type xfer struct {
	bits       int64
	values     int
	fromSensor bool
	attempted  bool
	ok         bool
	counted    bool
	rx         *frame.RxReport
}

func (r *run) ensure(x *xfer) bool {
	if x == nil {
		return false
	}
	if !x.attempted {
		x.attempted = true
		x.rx, x.ok = r.sendPayload(x.bits, x.values, x.fromSensor)
	}
	return x.ok
}

// ClassifyOver executes the partitioned pipeline on one segment with
// every crossing payload subject to opt's transport, faults and
// policy. It returns the best label the surviving data supports; when
// nothing survives, the error is a *NoResultError wrapping the last
// transfer failure.
func (s *System) ClassifyOver(seg biosig.Segment, opt *ResilientOptions) (Outcome, error) {
	if opt == nil {
		opt = &ResilientOptions{}
	}
	var out Outcome
	if s.Ens == nil {
		return out, errNoClassifier
	}
	if len(seg.Samples) != s.Graph.SegLen {
		return out, fmt.Errorf("xsystem: segment length %d, engine built for %d", len(seg.Samples), s.Graph.SegLen)
	}

	g := s.Graph
	p := s.Placement
	state := opt.Plan.At(opt.now())

	r := &run{opt: opt, out: &out, link: s.Link}
	// The compute schedule is fixed hardware / fixed software: charge it
	// up front, then add what the faulty link actually costs.
	d := s.DelayPerEvent()
	out.SpentSeconds = d.FrontEnd + d.BackEnd
	// Sensing runs regardless of how the event goes; compute and radio
	// energy accrue below as cells execute and attempts go on the air.
	out.SensorEnergy = s.problem.SensingEnergy

	// An aggregator stall blocks every back-end cell until the window
	// ends; the wait comes out of the deadline budget.
	if state.AggStall {
		if _, na := p.Counts(); na > 0 || !p.OnSensor(g.Output) {
			wait := opt.Plan.Until(opt.now(), faults.AggStall) - opt.now()
			if r.overBudget(wait) {
				out.DeadlineExceeded = true
				return out, &NoResultError{Outcome: out}
			}
			out.SpentSeconds += wait
		}
	}

	// Crossing payloads, memoized per event: the raw segment (when a
	// source reader sits on the aggregator), one per crossing transfer
	// group, and the final result (when the output sits on the sensor).
	var rawX *xfer
	for _, id := range g.SourceReaders() {
		if !p.OnSensor(id) {
			rawX = &xfer{bits: g.SourceBits, values: g.SegLen, fromSensor: true}
			break
		}
	}
	groups := g.TransferGroups()
	groupX := make([]*xfer, len(groups))
	// byPair[consumer][producer] lists the crossing groups feeding that
	// consumer from that producer.
	byPair := make(map[topology.CellID]map[topology.CellID][]int)
	for gi, tg := range groups {
		fromS := p.OnSensor(tg.From)
		for _, c := range tg.Consumers {
			if p.OnSensor(c) == fromS {
				continue
			}
			if groupX[gi] == nil {
				groupX[gi] = &xfer{bits: tg.Bits, values: tg.Values, fromSensor: fromS}
			}
			if byPair[c] == nil {
				byPair[c] = make(map[topology.CellID][]int)
			}
			byPair[c][tg.From] = append(byPair[c][tg.From], gi)
		}
	}
	crossed := func(consumer, producer topology.CellID) bool {
		ok := true
		for _, gi := range byPair[consumer][producer] {
			if !r.ensure(groupX[gi]) {
				ok = false
			}
		}
		return ok
	}

	prog := s.prog()
	sc := prog.acquire()
	defer prog.release(sc)
	defer clear(sc.over)
	prog.load(&sc.ev, seg.Samples)

	// dirtyView reconstructs the receive side of a producer's crossing
	// output when any of its arrived transfer groups carries damage —
	// undetected corruption, smeared slots or imputed losses. Nil means
	// the arrival was pristine and consumers read the producer's
	// crossing slot (quantized when it was produced).
	dirtyView := func(producer topology.CellID) []float64 {
		var view []float64
		for gi := range groups {
			tg := &groups[gi]
			x := groupX[gi]
			if tg.From != producer || x == nil || !x.attempted || !x.ok || !x.rx.Dirty() {
				continue
			}
			if view == nil {
				view = prog.appendOutput(nil, sc, prog.index[producer])
			}
			// The group's slice of the producer's full output: a DWT cell
			// emits detail ‖ approx, each its own group.
			off := 0
			if tg.Class == topology.PayloadApprox {
				off = g.Cells[producer].OutValues
			}
			n := tg.Values
			if off >= len(view) {
				continue
			}
			if off+n > len(view) {
				n = len(view) - off
			}
			per := int64(0)
			if tg.Values > 0 {
				per = tg.Bits / int64(tg.Values)
			}
			imputed := applyDamage(view[off:off+n], per, x.rx, opt.imputePolicy())
			if !x.counted {
				x.counted = true
				x.rx.Imputed = imputed
				out.ImputedValues += imputed
			}
		}
		return view
	}
	// receive hands each available crossing in-edge of step i whose
	// payload arrived damaged the receiver's reconstruction.
	receive := func(i int, ins []topology.Edge, avail []bool) {
		id := prog.steps[i].cell
		for k, e := range ins {
			if avail[k] && e.From != topology.SourceID && p.OnSensor(e.From) != p.OnSensor(id) {
				sc.over[prog.steps[i].in0+k] = dirtyView(e.From)
			}
		}
	}

	// When the raw segment crossed dirty, off-sensor source readers see
	// the receiver's reconstruction, not the sensor's pristine samples.
	rxLoaded := false
	rxSource := func() *source {
		if !rxLoaded {
			rxLoaded = true
			copy(sc.rxRaw, seg.Samples)
			per := int64(0)
			if g.SegLen > 0 {
				per = g.SourceBits / int64(g.SegLen)
			}
			imputed := applyDamage(sc.rxRaw, per, rawX.rx, opt.imputePolicy())
			if !rawX.counted {
				rawX.counted = true
				rawX.rx.Imputed = imputed
				out.ImputedValues += imputed
			}
			prog.load(&sc.rx, sc.rxRaw)
		}
		return &sc.rx
	}
	lost := sc.lost
	clear(lost)
	complete := true
	for i, id := range s.order {
		st := &prog.steps[i]
		if state.Brownout && st.sensor {
			// The cell array is below its operating threshold; sensing
			// itself survives, so raw data can still stream out.
			lost[id] = true
			complete = false
			continue
		}
		ins := g.InEdges(id)
		avail := sc.avail[:len(ins)]
		for k, e := range ins {
			switch {
			case e.From == topology.SourceID:
				avail[k] = st.sensor || r.ensure(rawX)
			case lost[e.From]:
				avail[k] = false
			case p.OnSensor(e.From) != st.sensor:
				avail[k] = crossed(id, e.From)
			default:
				avail[k] = true
			}
		}
		if st.role == topology.RoleFusion {
			if st.sensor {
				out.SensorEnergy += s.HW.Energy(id)
			}
			receive(i, ins, avail)
			used := prog.fuse(sc, i, avail)
			clear(sc.over[st.in0:st.in1])
			out.VotesTotal = len(ins)
			out.VotesUsed = used
			minVotes := opt.Policy.MinVotes
			if minVotes < 1 {
				minVotes = 1
			}
			if used < minVotes {
				lost[id] = true
				complete = false
				continue
			}
			if used < len(ins) {
				out.PartialFusion = true
				complete = false
			}
			continue
		}
		if slices.Contains(avail, false) {
			lost[id] = true
			complete = false
			continue
		}
		if st.sensor {
			out.SensorEnergy += s.HW.Energy(id)
		}
		src := &sc.ev
		if !st.sensor && rawX != nil && rawX.ok && rawX.rx.Dirty() {
			src = rxSource()
		}
		receive(i, ins, avail)
		err := prog.exec(sc, i, src)
		clear(sc.over[st.in0:st.in1])
		if err != nil {
			return out, fmt.Errorf("xsystem: cell %s: %w", st.name, err)
		}
	}

	if lost[g.Output] {
		return out, &NoResultError{Cause: r.lastErr, Outcome: out}
	}
	score, err := prog.score(sc)
	if err != nil {
		return out, &NoResultError{Cause: r.lastErr, Outcome: out}
	}
	out.Score = score
	if out.Score >= 0 {
		out.Label = 1
	}

	// Deliver the result to the aggregator when it was produced on the
	// sensor; failure leaves a valid sensor-local label.
	out.Delivered = true
	if p.OnSensor(g.Output) {
		rx, ok := r.sendPayload(wireless.ValueBits, 1, true)
		out.Delivered = ok
		if ok && rx.Dirty() {
			// The aggregator decoded a damaged score word: its label may
			// disagree with the sensor's. Report what the receiving end
			// actually concluded.
			sc := quantizeWire(out.Score, wireless.ValueBits)
			if mask, hit := rx.CorruptValues[0]; hit {
				sc = corruptWire(sc, wireless.ValueBits, mask)
			}
			out.Score = sc
			out.Label = 0
			if sc >= 0 {
				out.Label = 1
			}
		}
	}
	if out.ImputedValues > 0 || out.CorruptDelivered > 0 {
		complete = false
	}
	out.Complete = complete && out.Delivered
	return out, nil
}

// applyDamage rewrites view — the receiver's copy of one crossing
// payload's values — per the transport's receive report: slots are
// decoded at the wire width, smeared slots take their source's code
// word, undetected bit flips corrupt in the code-word domain, and
// values lost with their frames are imputed. Returns the imputed count.
func applyDamage(view []float64, bits int64, rx *frame.RxReport, policy frame.ImputePolicy) int {
	for i := range view {
		view[i] = quantizeWire(view[i], bits)
	}
	if len(rx.Moved) > 0 {
		base := append([]float64(nil), view...)
		for dst, src := range rx.Moved {
			if dst >= 0 && dst < len(view) && src >= 0 && src < len(base) {
				view[dst] = base[src]
			}
		}
	}
	for idx, mask := range rx.CorruptValues {
		if idx >= 0 && idx < len(view) {
			view[idx] = corruptWire(view[idx], bits, mask)
		}
	}
	if len(rx.Missing) == 0 {
		return 0
	}
	missing := make([]bool, len(view))
	for _, m := range rx.Missing {
		if m >= 0 && m < len(view) {
			missing[m] = true
		}
	}
	return frame.Impute(view, missing, policy)
}

package mediasim

import (
	"container/heap"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"enduratrace/internal/perturb"
	"enduratrace/internal/trace"
)

// Config tunes the simulated pipeline. DefaultConfig supplies values whose
// aggregate event rate (~1 kHz) and per-frame decode cost reproduce the
// qualitative behaviour of the paper's testbed at a size that simulates in
// well under real time.
type Config struct {
	// Duration is the simulated horizon; events have timestamps in
	// [0, Duration).
	Duration time.Duration
	// Load is the CPU-contention profile every simulated server integrates
	// its service times against (perturb.None for a clean reference run).
	Load perturb.Load
	// Seed makes the simulation deterministic: equal configs and seeds
	// produce byte-identical traces.
	Seed int64

	// FramePeriod is the display cadence (40 ms → 25 fps, as in §III).
	FramePeriod time.Duration
	// DecodeMean is the mean CPU demand of decoding one frame at load
	// factor 1. Utilisation is roughly DecodeMean/FramePeriod.
	DecodeMean time.Duration
	// DecodeJitter is the lognormal sigma of per-frame demand.
	DecodeJitter float64
	// KeyframeEvery makes every Nth frame cost KeyframeCost times the mean
	// (I-frames are more expensive than P/B-frames). 0 disables.
	KeyframeEvery int
	KeyframeCost  float64
	// DropLateAfter abandons a non-keyframe whose projected decode finish
	// lies more than DropLateAfter frame periods in the future (the
	// decoder's own QoS mechanism). 0 disables dropping.
	DropLateAfter int
	// QueueCap bounds the decoded-frame queue between decoder and sink; a
	// full queue blocks the decoder, exactly like a GStreamer queue element.
	QueueCap int
	// StartupFrames is the prebuffer depth before playback starts.
	StartupFrames int

	// IOReadEvery emits one io_read per N frames (container reads are
	// batched). PacketPayload/FramePayload size the demux and frame events
	// so encoded trace bytes are realistic.
	IOReadEvery   int
	PacketPayload int
	FramePayload  int

	// AudioPeriod is the audio buffer cadence; AudioDecodeMean the CPU
	// demand per buffer (an underflow is emitted when decode misses the
	// next buffer deadline). AudioPayload sizes audio_in events.
	AudioPeriod     time.Duration
	AudioDecodeMean time.Duration
	AudioPayload    int

	// OS background processes. VsyncPeriod/TimerPeriod are strictly
	// periodic; SchedHz, IRQHz, AllocHz and OtherHz are Poisson rates.
	// The scheduler rate is additionally scaled by the load factor: CPU
	// contention means more context switches.
	VsyncPeriod time.Duration
	TimerPeriod time.Duration
	SchedHz     float64
	IRQHz       float64
	AllocHz     float64
	OtherHz     float64

	// QueueSampleEvery emits periodic queue_level samples; a sample below
	// LowWatermark also emits buffer_low.
	QueueSampleEvery time.Duration
	LowWatermark     int

	// ErrorEvery emits one error_msg per N consecutive missed display
	// deadlines — the simulated GStreamer error log.
	ErrorEvery int
}

// DefaultConfig returns the simulation used by the evaluation harness: a
// 25 fps pipeline at ~72% CPU utilisation with an aggregate trace rate of
// about one thousand events per second.
func DefaultConfig() Config {
	return Config{
		Duration:         10 * time.Minute,
		Load:             perturb.None{},
		Seed:             1,
		FramePeriod:      40 * time.Millisecond,
		DecodeMean:       28 * time.Millisecond,
		DecodeJitter:     0.12,
		KeyframeEvery:    12,
		KeyframeCost:     1.6,
		DropLateAfter:    3,
		QueueCap:         8,
		StartupFrames:    4,
		IOReadEvery:      4,
		PacketPayload:    96,
		FramePayload:     160,
		AudioPeriod:      21333 * time.Microsecond,
		AudioDecodeMean:  8 * time.Millisecond,
		AudioPayload:     24,
		VsyncPeriod:      time.Second / 60,
		TimerPeriod:      4 * time.Millisecond,
		SchedHz:          180,
		IRQHz:            90,
		AllocHz:          150,
		OtherHz:          2,
		QueueSampleEvery: 50 * time.Millisecond,
		LowWatermark:     2,
		ErrorEvery:       25,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("mediasim: Duration %v must be positive", c.Duration)
	case c.Load == nil:
		return fmt.Errorf("mediasim: nil Load (use perturb.None{})")
	case c.FramePeriod <= 0:
		return fmt.Errorf("mediasim: FramePeriod %v must be positive", c.FramePeriod)
	case c.DecodeMean <= 0:
		return fmt.Errorf("mediasim: DecodeMean %v must be positive", c.DecodeMean)
	case c.DecodeJitter < 0:
		return fmt.Errorf("mediasim: DecodeJitter %g must be >= 0", c.DecodeJitter)
	case c.QueueCap <= 0:
		return fmt.Errorf("mediasim: QueueCap %d must be positive", c.QueueCap)
	case c.StartupFrames < 0 || c.StartupFrames > c.QueueCap:
		return fmt.Errorf("mediasim: StartupFrames %d outside [0, QueueCap=%d]", c.StartupFrames, c.QueueCap)
	case c.AudioPeriod <= 0:
		return fmt.Errorf("mediasim: AudioPeriod %v must be positive", c.AudioPeriod)
	case c.VsyncPeriod <= 0 || c.TimerPeriod <= 0 || c.QueueSampleEvery <= 0:
		return fmt.Errorf("mediasim: periodic background periods must be positive")
	case c.KeyframeEvery > 0 && c.KeyframeCost < 1:
		return fmt.Errorf("mediasim: KeyframeCost %g must be >= 1", c.KeyframeCost)
	}
	return nil
}

// action is one calendar entry: fn runs at time t. seq breaks ties so that
// simultaneous actions execute in scheduling order, which keeps the
// simulation deterministic.
type action struct {
	t   time.Duration
	seq int
	fn  func()
}

type calendar []*action

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	if c[i].t != c[j].t {
		return c[i].t < c[j].t
	}
	return c[i].seq < c[j].seq
}
func (c calendar) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x any)   { *c = append(*c, x.(*action)) }
func (c *calendar) Pop() (x any) {
	old := *c
	n := len(old)
	x = old[n-1]
	*c = old[:n-1]
	return x
}

// Sim is the discrete-event pipeline simulator. It implements trace.Reader:
// events are generated lazily as they are read, so arbitrarily long runs
// stream in constant memory. A Sim is single-use and not safe for
// concurrent use.
type Sim struct {
	cfg Config
	rng *rand.Rand
	cal calendar
	seq int
	now time.Duration
	out []trace.Event
	pos int

	queue    int    // decoded frames buffered between decoder and sink
	blocked  bool   // decoder waiting for queue space
	started  bool   // prebuffer complete, playback running
	frameIn  uint64 // next frame number entering the decoder
	frameOut uint64 // next frame number leaving the sink
	misses   int    // consecutive missed display deadlines
	drops    int    // decoder-dropped frames not yet seen by the sink
	audioSeq uint64
}

// New validates cfg and returns a ready simulator.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	heap.Init(&s.cal)
	s.at(0, s.vsync)
	s.at(500*time.Microsecond, s.timer)
	s.at(time.Millisecond, s.decodeNext)
	s.at(cfg.FramePeriod, s.render)
	s.at(cfg.AudioPeriod, s.audio)
	s.at(cfg.QueueSampleEvery, s.sampleQueue)
	s.poissonStart(EvSchedSwitch, cfg.SchedHz, true)
	s.poissonStart(EvIRQ, cfg.IRQHz, false)
	s.poissonStart(EvMemAlloc, cfg.AllocHz, false)
	s.poissonStart(EvOther, cfg.OtherHz, false)
	return s, nil
}

// ReadBatch implements trace.Reader: it runs the simulation until dst
// is full or the horizon is reached, when the stream ends with io.EOF.
// Events come out in non-decreasing timestamp order, the same whatever
// the batch sizes.
func (s *Sim) ReadBatch(dst []trace.Event) (int, error) {
	n := 0
	for n < len(dst) {
		if s.pos < len(s.out) {
			k := copy(dst[n:], s.out[s.pos:])
			s.pos += k
			n += k
			continue
		}
		if len(s.cal) == 0 {
			if n == 0 {
				return 0, io.EOF
			}
			break
		}
		a := heap.Pop(&s.cal).(*action)
		if a.t >= s.cfg.Duration {
			continue // beyond the horizon: the chain dies here
		}
		s.out = s.out[:0]
		s.pos = 0
		s.now = a.t
		a.fn()
	}
	return n, nil
}

// Events runs the whole simulation into a slice; intended for tests and
// short traces.
func Events(cfg Config) ([]trace.Event, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(s)
}

func (s *Sim) at(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.cal, &action{t: t, seq: s.seq, fn: fn})
}

func (s *Sim) emit(t trace.EventType, arg uint64, payload int) {
	var p []byte
	if payload > 0 {
		p = make([]byte, payload)
		s.rng.Read(p)
	}
	s.out = append(s.out, trace.Event{TS: s.now, Type: t, Arg: arg, Payload: p})
}

func (s *Sim) load() float64 { return s.cfg.Load.FactorAt(s.now) }

// --- OS background -------------------------------------------------------

func (s *Sim) vsync() {
	s.emit(EvVsync, 0, 0)
	s.at(s.now+s.cfg.VsyncPeriod, s.vsync)
}

func (s *Sim) timer() {
	s.emit(EvTimerTick, 0, 0)
	s.at(s.now+s.cfg.TimerPeriod, s.timer)
}

// poissonStart launches a Poisson event source. When scaled, the rate is
// multiplied by the current load factor: a CPU hog means more context
// switches on the contended core.
func (s *Sim) poissonStart(t trace.EventType, hz float64, scaled bool) {
	if hz <= 0 {
		return
	}
	var tick func()
	tick = func() {
		s.emit(t, uint64(s.rng.Intn(64)), 0)
		rate := hz
		if scaled {
			rate *= s.load()
		}
		s.at(s.now+s.expInterval(rate), tick)
	}
	s.at(s.expInterval(hz), tick)
}

func (s *Sim) expInterval(hz float64) time.Duration {
	return time.Duration(s.rng.ExpFloat64() / hz * float64(time.Second))
}

// --- video path ----------------------------------------------------------

func (s *Sim) isKeyframe(frame uint64) bool {
	return s.cfg.KeyframeEvery > 0 && frame%uint64(s.cfg.KeyframeEvery) == 0
}

func (s *Sim) demand(frame uint64) time.Duration {
	m := float64(s.cfg.DecodeMean)
	if s.isKeyframe(frame) {
		m *= s.cfg.KeyframeCost
	}
	return time.Duration(m * math.Exp(s.rng.NormFloat64()*s.cfg.DecodeJitter))
}

// decodeNext pulls the next frame through source → demux → decoder. The
// source never starves (the file is local), so the decoder is the single
// server whose service time the load profile stretches.
func (s *Sim) decodeNext() {
	if s.queue >= s.cfg.QueueCap {
		s.blocked = true
		return
	}
	frame := s.frameIn
	s.frameIn++
	if s.cfg.IOReadEvery > 0 && frame%uint64(s.cfg.IOReadEvery) == 0 {
		s.emit(EvIORead, frame, 0)
	}
	s.emit(EvDemuxPacket, frame, s.cfg.PacketPayload)
	s.emit(EvFrameIn, frame, s.cfg.FramePayload)
	s.emit(EvDecodeStart, frame, 0)

	w := s.demand(frame)
	finish := perturb.WorkFinish(s.cfg.Load, s.now, w)
	dropped := false
	if s.cfg.DropLateAfter > 0 && !s.isKeyframe(frame) &&
		finish-s.now > time.Duration(s.cfg.DropLateAfter)*s.cfg.FramePeriod {
		// Decoder QoS: a hopelessly late non-reference frame is abandoned
		// after a third of its work rather than decoded in full.
		dropped = true
		finish = perturb.WorkFinish(s.cfg.Load, s.now, w/3)
	}
	s.at(finish, func() { s.decodeDone(frame, dropped) })
}

func (s *Sim) decodeDone(frame uint64, dropped bool) {
	s.emit(EvDecodeEnd, frame, 0)
	if dropped {
		s.emit(EvFrameDrop, frame, 0)
		s.drops++
	} else {
		s.queue++
		s.emit(EvFrameQueued, uint64(s.queue), 0)
	}
	s.decodeNext()
}

// wake restarts a decoder that blocked on a full queue.
func (s *Sim) wake() {
	if s.blocked && s.queue < s.cfg.QueueCap {
		s.blocked = false
		s.decodeNext()
	}
}

// render is the display sink's deadline tick, once per FramePeriod.
func (s *Sim) render() {
	s.at(s.now+s.cfg.FramePeriod, s.render)
	if !s.started {
		if s.queue < s.cfg.StartupFrames {
			return
		}
		s.started = true
	}
	if s.queue == 0 {
		s.misses++
		if s.drops > 0 {
			// The frame for this slot was dropped upstream by the decoder.
			s.drops--
			s.emit(EvFrameSkipped, s.frameOut, 0)
			s.frameOut++
		} else {
			s.emit(EvQoSUnderflow, uint64(s.misses), 0)
		}
		if s.cfg.ErrorEvery > 0 && s.misses%s.cfg.ErrorEvery == 0 {
			s.emit(EvErrorMsg, uint64(s.misses), 0)
		}
		return
	}
	if s.misses >= 4 {
		// The queue refilled after a long stall: its head frame is stale
		// and the sink discards it before resuming playback.
		s.queue--
		s.emit(EvFrameDropLate, s.frameOut, 0)
		s.frameOut++
		s.wake()
		if s.queue == 0 {
			s.misses++
			s.emit(EvQoSUnderflow, uint64(s.misses), 0)
			return
		}
	}
	s.queue--
	s.emit(EvFrameRender, s.frameOut, 0)
	s.frameOut++
	if s.misses > 0 {
		s.emit(EvQoSRecovered, uint64(s.misses), 0)
		s.misses = 0
	}
	s.wake()
}

// --- audio path ----------------------------------------------------------

// audio models the lighter audio chain: one buffer per AudioPeriod, decoded
// by a server that shares the contended CPU. Missing the next buffer
// deadline starves the audio sink.
func (s *Sim) audio() {
	s.at(s.now+s.cfg.AudioPeriod, s.audio)
	n := s.audioSeq
	s.audioSeq++
	s.emit(EvAudioIn, n, s.cfg.AudioPayload)
	w := time.Duration(float64(s.cfg.AudioDecodeMean) * math.Exp(s.rng.NormFloat64()*s.cfg.DecodeJitter))
	finish := perturb.WorkFinish(s.cfg.Load, s.now, w)
	deadline := s.now + s.cfg.AudioPeriod
	if finish > deadline {
		s.at(deadline, func() { s.emit(EvAudioUnderflow, n, 0) })
	}
	s.at(finish, func() {
		s.emit(EvAudioDecode, n, 0)
		s.emit(EvAudioOut, n, 0)
	})
}

// --- housekeeping --------------------------------------------------------

func (s *Sim) sampleQueue() {
	s.at(s.now+s.cfg.QueueSampleEvery, s.sampleQueue)
	s.emit(EvQueueLevel, uint64(s.queue), 0)
	if s.queue < s.cfg.LowWatermark {
		s.emit(EvBufferLow, uint64(s.queue), 0)
	}
}

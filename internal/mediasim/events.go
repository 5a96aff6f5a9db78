// Package mediasim simulates a GStreamer-style multimedia decoding pipeline
// and emits the execution trace the paper's monitor consumes.
//
// The paper's testbed (§III) is the real GStreamer framework decoding a
// 6 h 17 m video on one core of a laptop, traced by dedicated hardware, with
// a CPU-hog "perturbation" started every 3 minutes. That testbed is not
// available offline, so this package substitutes a discrete-event simulation
// of the same structure:
//
//	source → demuxer → video decoder → frame queue → display sink
//	                 → audio decoder → audio sink
//
// plus the OS background (vsync, timer ticks, scheduler switches, IRQs,
// allocator activity) that dominates real trace event counts. The decoder is
// a single server whose service times scale with a CPU-contention load
// factor; the frame queue between decoder and sink reproduces GStreamer's
// buffering, which *delays* the visible impact of a perturbation (the Δs and
// Δe of §III). QoS underflow and error-message events play the role of the
// GStreamer error log used for ground-truth labelling.
package mediasim

import (
	"enduratrace/internal/trace"
)

// Event types emitted by the simulated pipeline. The order groups the types
// roughly by rate; the pmf dimensionality is NumEventTypes.
const (
	EvVsync          trace.EventType = iota // display refresh tick
	EvTimerTick                             // periodic OS timer
	EvSchedSwitch                           // scheduler context switch
	EvIRQ                                   // interrupt entry
	EvMemAlloc                              // allocator activity
	EvIORead                                // source reads from storage
	EvQueueLevel                            // periodic frame-queue depth sample (Arg = depth)
	EvBufferLow                             // queue below low watermark at sample time
	EvDemuxPacket                           // container packet parsed
	EvFrameIn                               // encoded video frame enters decoder (Arg = frame #)
	EvDecodeStart                           // video decode begins (Arg = frame #)
	EvDecodeEnd                             // video decode ends (Arg = frame #)
	EvFrameQueued                           // decoded frame pushed to queue (Arg = depth)
	EvFrameRender                           // sink displays a frame on time (Arg = frame #)
	EvFrameDrop                             // decoder skips a late non-reference frame (QoS)
	EvFrameDropLate                         // sink discards a stale frame
	EvFrameSkipped                          // display slot missed because its frame was dropped upstream
	EvQoSUnderflow                          // display deadline missed with an empty queue
	EvQoSRecovered                          // first successful render after misses
	EvErrorMsg                              // pipeline error message (the GStreamer error log)
	EvAudioIn                               // encoded audio buffer arrives
	EvAudioDecode                           // audio decode completes
	EvAudioOut                              // audio buffer hits the audio sink
	EvAudioUnderflow                        // audio sink starved
	EvOther                                 // fold-over bucket for unknown types

	// NumEventTypes is the pmf dimensionality of simulated traces.
	NumEventTypes = int(EvOther) + 1
)

var eventNames = map[trace.EventType]string{
	EvVsync:          "vsync",
	EvTimerTick:      "timer_tick",
	EvSchedSwitch:    "sched_switch",
	EvIRQ:            "irq",
	EvMemAlloc:       "mem_alloc",
	EvIORead:         "io_read",
	EvQueueLevel:     "queue_level",
	EvBufferLow:      "buffer_low",
	EvDemuxPacket:    "demux_packet",
	EvFrameIn:        "frame_in",
	EvDecodeStart:    "decode_start",
	EvDecodeEnd:      "decode_end",
	EvFrameQueued:    "frame_queued",
	EvFrameRender:    "frame_render",
	EvFrameDrop:      "frame_drop",
	EvFrameDropLate:  "frame_drop_late",
	EvFrameSkipped:   "frame_skipped",
	EvQoSUnderflow:   "qos_underflow",
	EvQoSRecovered:   "qos_recovered",
	EvErrorMsg:       "error_msg",
	EvAudioIn:        "audio_in",
	EvAudioDecode:    "audio_decode",
	EvAudioOut:       "audio_out",
	EvAudioUnderflow: "audio_underflow",
	EvOther:          "other",
}

// Registry returns a trace.Registry naming every simulated event type.
func Registry() *trace.Registry {
	reg := trace.NewRegistry()
	for t, n := range eventNames {
		reg.Register(t, n)
	}
	return reg
}

"""Audio broadcasting with router bandwidth adaptation (paper 3.1).

Names resolve on first access (:mod:`repro._lazy`)."""

from ..._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, globals(), {
    "client": ("AudioClient", "BandwidthSample", "SilentPeriod"),
    "codec": ("decode_frame", "encode_frame", "generate_pcm_stereo16"),
    "experiment": ("AUDIO_GROUP", "FIG6_SCHEDULE", "AudioExperimentResult",
                   "GapSweepResult", "run_audio_experiment",
                   "run_gap_sweep"),
    "loadgen": ("LoadGenerator",),
    "source": ("AudioSource",),
})

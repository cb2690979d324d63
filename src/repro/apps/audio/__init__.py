"""Audio broadcasting with router bandwidth adaptation (paper 3.1)."""

from .client import AudioClient, BandwidthSample, SilentPeriod
from .codec import (decode_frame, degrade, encode_frame, frame_kbps,
                    generate_pcm_stereo16, restore_to_stereo16)
from .experiment import (AUDIO_GROUP, FIG6_SCHEDULE, AudioExperimentResult,
                         GapSweepResult, run_audio_experiment,
                         run_gap_sweep)
from .loadgen import LoadGenerator
from .source import AudioSource

__all__ = [
    "AUDIO_GROUP",
    "FIG6_SCHEDULE",
    "AudioClient",
    "AudioExperimentResult",
    "AudioSource",
    "BandwidthSample",
    "GapSweepResult",
    "LoadGenerator",
    "SilentPeriod",
    "decode_frame",
    "degrade",
    "encode_frame",
    "frame_kbps",
    "generate_pcm_stereo16",
    "restore_to_stereo16",
    "run_audio_experiment",
    "run_gap_sweep",
]

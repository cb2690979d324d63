"""The Application-Specific Protocols this reproduction ships.

Eleven PLAN-P templates.  Five match the lineup of Figure 3:

=====================  =============================================
``audio_router_asp``   bandwidth adaptation in routers      (§3.1)
``audio_client_asp``   format restoration at audio clients  (§3.1)
``http_gateway_asp``   load-balancing virtual HTTP server   (§3.2)
``mpeg_monitor_asp``   connection monitor / query responder (§3.3)
``mpeg_client_asp``    packet capture at MPEG clients       (§3.3)
=====================  =============================================

The other six carry the paper's §5 future work and the overload
experiments: ``content_filter_asp``, ``firewall_asp``,
``link_compressor_asp`` and ``link_decompressor_asp`` (:mod:`.filters`),
``image_distiller_asp`` (:mod:`.images`) and ``shedding_asp``
(:mod:`.overload`).  ``firewall_asp`` and ``shedding_asp`` drop packets,
so the delivery analysis refuses them unless they are installed with
``verify=False``.

Each is a template function returning PLAN-P source specialised with the
deployment's addresses and policy parameters — the paper's point that
ASPs "can be easily modified to reflect a change in the number [of]
physical servers or the topology" is literally this parameterisation.
"""

from .audio import (AUDIO_PORT, FMT_MONO16, FMT_MONO8, FMT_STEREO16,
                    audio_client_asp, audio_router_asp)
from .filters import (content_filter_asp, firewall_asp,
                      link_compressor_asp, link_decompressor_asp)
from .http import HTTP_PORT, http_gateway_asp
from .images import IMAGE_PORT, image_distiller_asp
from .mpeg import (CAPTURE_CONFIG_PORT, MONITOR_QUERY_PORT,
                   MONITOR_REPLY_PORT, MPEG_CTRL_PORT, mpeg_client_asp,
                   mpeg_monitor_asp)
from .overload import shedding_asp

__all__ = [
    "AUDIO_PORT",
    "CAPTURE_CONFIG_PORT",
    "FMT_MONO16",
    "FMT_MONO8",
    "FMT_STEREO16",
    "HTTP_PORT",
    "IMAGE_PORT",
    "MONITOR_QUERY_PORT",
    "MONITOR_REPLY_PORT",
    "MPEG_CTRL_PORT",
    "audio_client_asp",
    "audio_router_asp",
    "content_filter_asp",
    "firewall_asp",
    "link_compressor_asp",
    "link_decompressor_asp",
    "http_gateway_asp",
    "image_distiller_asp",
    "mpeg_client_asp",
    "mpeg_monitor_asp",
    "shedding_asp",
]

"""Multiple-access channel substrate.

Slot-level simulation of the broadcast channel: messages, stations, the
ternary-feedback slotted channel, and the full window-MAC simulator that
produces Figure 7's simulation points.  Slotted-ALOHA and TDMA baselines
(not part of the paper's evaluation) live here as extensions.
"""

from .aloha import AlohaResult, SlottedAlohaSimulator
from .channel import ChannelStats, SlottedChannel
from .des_simulator import DESWindowMACSimulator
from .messages import Message, MessageFate
from .simulator import MACSimResult, WindowMACSimulator
# The default engine loads with the package, not inside a run's first
# call; it imports the simulator module, so it must come after it.
from .kernels import compiled as _engine  # noqa: F401
from .station import Station, StationRegistry
from .tdma import TDMAResult, TDMASimulator, tdma_loss_probability

__all__ = [
    "Message",
    "MessageFate",
    "Station",
    "StationRegistry",
    "SlottedChannel",
    "ChannelStats",
    "WindowMACSimulator",
    "DESWindowMACSimulator",
    "MACSimResult",
    "SlottedAlohaSimulator",
    "AlohaResult",
    "TDMASimulator",
    "TDMAResult",
    "tdma_loss_probability",
]

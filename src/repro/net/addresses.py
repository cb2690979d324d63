"""IPv4-style addresses for the simulated network.

Addresses are value objects shared by the network simulator and the
PLAN-P value domain (the PLAN-P ``host`` type is an address).  The module
has no other dependencies so that the language runtime can import it
without pulling in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
@dataclass(frozen=True, slots=True)
class HostAddr:
    """An IPv4-style unicast or multicast address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"address out of range: {self.value:#x}")

    @classmethod
    def parse(cls, text: str) -> "HostAddr":
        """Parse dotted-quad notation, e.g. ``131.254.60.81``."""
        groups = text.split(".")
        if len(groups) != 4:
            raise ValueError(f"malformed address {text!r}")
        value = 0
        for g in groups:
            n = int(g)
            if not 0 <= n <= 255:
                raise ValueError(f"address group out of range in {text!r}")
            value = (value << 8) | n
        return cls(value)

    @property
    def is_multicast(self) -> bool:
        """True for class-D addresses (224.0.0.0/4), used by IP multicast."""
        return (self.value >> 28) == 0xE

    @property
    def is_broadcast(self) -> bool:
        return self.value == 0xFFFFFFFF

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"HostAddr({self})"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, HostAddr):
            return NotImplemented
        return self.value < other.value


#: The unspecified address, used as a placeholder before binding.
ANY_ADDR = HostAddr(0)

#: Limited broadcast.
BROADCAST_ADDR = HostAddr(0xFFFFFFFF)


def addr(text_or_int: str | int) -> HostAddr:
    """Convenience constructor accepting dotted-quad text or a raw int."""
    if isinstance(text_or_int, int):
        return HostAddr(text_or_int)
    return HostAddr.parse(text_or_int)


class AddressAllocator:
    """Hands out unique host addresses within a /24-style prefix.

    Used by topology builders so tests and experiments get stable,
    readable addresses (10.0.<net>.<host>).  Subnet ids are 16-bit and
    roll into the second octet past 255 (10.<net-hi>.<net-lo>.<host>),
    so one allocator covers the scale topologies — 10k+ nodes means
    10k+ point-to-point subnets.
    """

    def __init__(self, base: str | int = "10.0.0.0"):
        self._base = addr(base).value
        self._next_net = 0
        self._next_host: dict[int, int] = {}

    def new_subnet(self) -> int:
        """Reserve a fresh /16-addressable subnet id."""
        self._next_net += 1
        if self._next_net > 0xFFFF:
            raise RuntimeError("address allocator exhausted "
                               "(65535 subnets)")
        self._next_host[self._next_net] = 0
        return self._next_net

    def new_host(self, subnet: int) -> HostAddr:
        """Allocate the next host address in ``subnet``."""
        if subnet not in self._next_host:
            raise ValueError(f"unknown subnet {subnet}")
        self._next_host[subnet] += 1
        host_part = self._next_host[subnet]
        if host_part > 254:
            raise RuntimeError(f"subnet {subnet} exhausted")
        return HostAddr(self._base | (subnet << 8) | host_part)

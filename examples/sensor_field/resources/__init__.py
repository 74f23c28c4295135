"""The resource layer: what CARD actually discovers.

The paper is titled *resource* discovery — "which includes route
discovery" (§II) — but its evaluation uses node ids as stand-ins for
resources.  This package supplies the missing application layer a
downstream user needs:

* :class:`~resources.registry.ResourceRegistry` — a directory of
  typed resources (``"gateway"``, ``"medic"``, ``"printer"``) hosted by
  provider nodes, with registration/deregistration;
* :class:`~resources.discovery.ResourceQueryEngine` — CARD's DSQ
  generalized from "find node T" to "find *any provider* of resource k":
  a zone lookup succeeds when any provider lies in the inspected
  neighborhood, which is precisely how the proactive zone scheme would
  advertise local resources;
* nearest-provider selection and anycast-style results.

The sensor-field example uses this layer; the baselines compare through
the same any-provider semantics (flooding stops at the first provider).
"""

from resources.registry import ResourceRegistry
from resources.discovery import ResourceQueryEngine, ResourceQueryResult

__all__ = ["ResourceRegistry", "ResourceQueryEngine", "ResourceQueryResult"]

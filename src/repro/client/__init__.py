"""File-system clients.

* :class:`~repro.client.client.Client` — the POSIX-path client: every
  metadata operation is a synchronous RPC to the metadata server (the
  paper's strong-consistency baseline).  The MDS alone tracks
  capabilities; a reply's ``rpcs`` says whether a create needed the
  extra ``lookup``.  Batch helpers amortize simulator events, not
  simulated cost.
* :class:`~repro.client.decoupled.DecoupledClient` — the
  decoupled-namespace client: operations append to a local in-memory
  journal (Append Client Journal) at ~11K creates/s, optionally
  persisting each record locally; merging back is Cudele's job
  (:mod:`repro.core`).
"""

from repro.client.client import Client
from repro.client.decoupled import DecoupledClient

__all__ = ["Client", "DecoupledClient"]

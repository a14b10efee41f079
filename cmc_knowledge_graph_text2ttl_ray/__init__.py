"""Ray-Data-native knowledge-graph construction engine.

A brand-new engine with the query / data-processing capabilities of
Bayer-Group/cmc-knowledge-graph-text2ttl, re-expressed Ray-Data-first:

- ``state``     — workflow compiler + per-document interpreter (the pure core;
                  reference semantics: kg_text_to_ttl/text_to_turtle_processor.py)
- ``functions`` — template expansion, RDF literal parsing, Turtle I/O,
                  text-analysis kernels
- ``sources``   — deterministic Common-Crawl-style page synthesis + parquet IO
- ``stages``    — Ray Data map_batches stages (HTML→text extraction, triple
                  extraction tasks, canonicalization, dedup, sinks)
- ``pipelines`` — end-to-end pipelines (KG construction, relational analytics,
                  dedup family, similarity search, text analysis)

Everything here derives from public knowledge only (Ray / Ray Data and
pyarrow APIs, and the behavior of the public reference repo).
"""

from cmc_knowledge_graph_text2ttl_ray.state.plan import compile_workflow, CompiledPlan
from cmc_knowledge_graph_text2ttl_ray.state.interpreter import (
    WorkflowInterpreter,
    DocResult,
)

__all__ = [
    "compile_workflow",
    "CompiledPlan",
    "WorkflowInterpreter",
    "DocResult",
]

__version__ = "0.1.0"

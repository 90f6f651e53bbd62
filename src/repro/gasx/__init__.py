"""gasx — GraphX-like vertex-cut processing engine on Spark DataFrames
(the Table 4 substrate): PageRank, BFS, Connected Components."""
from .algorithms import bfs, connected_components, pagerank  # noqa: F401

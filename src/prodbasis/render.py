"""ASCII rendering of tile layouts.

Columns index the A side, rows the B side; each cell lists the labels of
the tiles covering it.  A state covering the entire grid is treated as the
stopper and left out of the picture, as is customary for these diagrams.
"""

from __future__ import annotations

from .basis import ProductBasis
from .errors import NoTileMetadata

__all__ = ["render_tiles"]

_LABEL_WIDTH = 6


def render_tiles(basis: ProductBasis) -> str:
    if any(cells is None for cells in basis.tile_cells):
        raise NoTileMetadata("basis states carry no tile-cell metadata")
    # the stopper covers every cell, the rule verify._tile_layout uses
    stoppers = [i for i, cells in enumerate(basis.tile_cells) if len(cells) == basis.dim]
    tiles = [i for i, cells in enumerate(basis.tile_cells) if len(cells) != basis.dim]

    covering = {}  # cell -> truncated labels of the tiles on it, in state order
    legend = []
    for i in tiles:
        label = basis.labels[i] or "?"
        trunc = label[:_LABEL_WIDTH]
        if len(label) > _LABEL_WIDTH:
            legend.append(f"{trunc} = {label}")
        for cell in basis.tile_cells[i]:
            covering.setdefault(cell, []).append(trunc)
    cell_text = {(c, r): " ".join(covering.get((c, r), ["."])) for c in range(basis.d_a) for r in range(basis.d_b)}

    widths = [max(len(cell_text[(c, r)]) for r in range(basis.d_b)) for c in range(basis.d_a)]
    widths = [max(w, len(f"A{c}")) for c, w in enumerate(widths)]

    lines = []
    header = "     " + "  ".join(f"A{c}".ljust(widths[c]) for c in range(basis.d_a))
    lines.append(header)
    for r in range(basis.d_b):
        row = "  ".join(cell_text[(c, r)].ljust(widths[c]) for c in range(basis.d_a))
        lines.append(f"B{r:<3} {row}".rstrip())
    for i in stoppers:
        lines.append(f"stopper {basis.labels[i] or '?'} omitted (covers every cell)")
    if legend:
        lines.append("legend:")
        lines.extend(f"  {entry}" for entry in sorted(set(legend)))
    return "\n".join(lines)

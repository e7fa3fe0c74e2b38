"""Model registry: (dataset, fraction, timestep) -> trained flat weights.

The serving layer's durable substrate.  A registry directory holds one or
more *namespaces* — a (dataset, fraction) pair sharing one pretrained base
model and one frozen sample geometry — and, per timestep, the fine-tuned
flat weight vector (:func:`repro.perf.snapshot_weights` layout, exactly
what :meth:`repro.core.FCNNReconstructor.fine_tune_batch` and the campaign
journal produce) plus that timestep's sample values.

Storage tiers:

* **cold** — each artifact is a plain ``.npy`` file opened with
  ``np.load(..., mmap_mode="r")``: the OS pages weights in on demand, so a
  registry with thousands of timesteps costs no resident memory until a
  key is actually served;
* **hot** — an LRU of in-RAM ``(weights, values)`` copies
  (:meth:`ModelRegistry.hot`), so repeated tenants never re-read or
  re-allocate (counters ``serve.registry.hits`` / ``.misses``, gauge
  ``serve.registry.hot_entries``).

All writes are atomic (temp file + ``os.replace``), matching the
repo-wide checkpoint durability convention, and the manifest
(``registry.json``) is rewritten atomically after every mutation so a
crash mid-``put`` never leaves a dangling entry.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.grid import UniformGrid
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.perf.campaign import CampaignGeometry, GeometryCache
from repro.resilience.checkpoint import atomic_write
from repro.sampling.base import SampledField

__all__ = ["ModelKey", "ModelRegistry", "RegistryNamespace"]

_SCHEMA = 1


@dataclass(frozen=True, order=True)
class ModelKey:
    """Identity of one served model: which dataset, sampled how, when."""

    dataset: str
    fraction: float
    timestep: int

    @property
    def namespace_id(self) -> str:
        return namespace_id(self.dataset, self.fraction)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.dataset}@{self.fraction:g}/t{self.timestep}"


def namespace_id(dataset: str, fraction: float) -> str:
    """Stable directory-safe id for a (dataset, fraction) namespace."""
    return f"{dataset}-f{float(fraction):.6f}"


def _atomic_save_npy(path: Path, array: np.ndarray) -> None:
    """``np.save`` committed through :func:`~repro.resilience.checkpoint.atomic_write`."""
    atomic_write(path, lambda fh: np.save(fh, np.ascontiguousarray(array)))


class RegistryNamespace:
    """One (dataset, fraction) family: shared base model + frozen geometry.

    Lazily materializes the expensive shared state — the base
    :class:`~repro.core.FCNNReconstructor` (architecture + normalizer) and
    the :class:`~repro.perf.CampaignGeometry` (void enumeration, kd-tree
    memo) — exactly once per namespace, via the registry's
    :class:`~repro.perf.GeometryCache` so namespaces sampling the same
    locations share geometry objects.
    """

    def __init__(self, registry: "ModelRegistry", ns_id: str, record: dict) -> None:
        self._registry = registry
        self.ns_id = ns_id
        self.dataset = str(record["dataset"])
        self.fraction = float(record["fraction"])
        self.grid = UniformGrid(
            dims=tuple(record["grid"]["dims"]),
            spacing=tuple(record["grid"]["spacing"]),
            origin=tuple(record["grid"]["origin"]),
        )
        self.timesteps = sorted(int(t) for t in record["timesteps"])
        self._dir = registry.root / ns_id
        self._base = None
        self._geometry: CampaignGeometry | None = None
        self._indices: np.ndarray | None = None

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            self._indices = np.load(self._dir / "indices.npy")
        return self._indices

    @property
    def base(self):
        """The namespace's pretrained base reconstructor (loaded once)."""
        if self._base is None:
            from repro.core.reconstructor import FCNNReconstructor

            self._base = FCNNReconstructor.load(self._dir / "base.npz")
        return self._base

    @property
    def geometry(self) -> CampaignGeometry:
        if self._geometry is None:
            shell = SampledField(
                grid=self.grid,
                indices=self.indices,
                values=np.zeros(self.indices.size, dtype=np.float64),
                fraction=self.fraction,
            )
            self._geometry = self._registry.geometry_cache.get(
                shell, dtype=self.base.dtype_policy.compute
            )
        return self._geometry

    def keys(self) -> list[ModelKey]:
        return [ModelKey(self.dataset, self.fraction, t) for t in self.timesteps]


class ModelRegistry:
    """Durable (dataset, fraction, timestep) -> weights store with a hot LRU."""

    def __init__(
        self,
        root: str | Path,
        hot_capacity: int = 16,
        geometry_cache: GeometryCache | None = None,
    ) -> None:
        if hot_capacity < 1:
            raise ValueError(f"hot_capacity must be >= 1, got {hot_capacity}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hot_capacity = int(hot_capacity)
        self.geometry_cache = geometry_cache if geometry_cache is not None else GeometryCache()
        self._manifest_path = self.root / "registry.json"
        self._namespaces: dict[str, RegistryNamespace] = {}
        self._hot: OrderedDict[ModelKey, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        if self._manifest_path.exists():
            manifest = json.loads(self._manifest_path.read_text(encoding="utf-8"))
            if manifest.get("schema") != _SCHEMA:
                raise ValueError(
                    f"{self._manifest_path}: unsupported registry schema "
                    f"{manifest.get('schema')!r} (expected {_SCHEMA})"
                )
            self._records: dict[str, dict] = manifest["namespaces"]
        else:
            self._records = {}

    # ------------------------------------------------------------- manifest
    def _flush_manifest(self) -> None:
        manifest = {"schema": _SCHEMA, "namespaces": self._records}
        text = json.dumps(manifest, indent=2, sort_keys=True)
        atomic_write(self._manifest_path, lambda fh: fh.write(text.encode("utf-8")))

    # ----------------------------------------------------------- namespaces
    def create_namespace(
        self,
        dataset: str,
        fraction: float,
        base,
        grid: UniformGrid,
        indices: np.ndarray,
    ) -> RegistryNamespace:
        """Register a (dataset, fraction) family: base checkpoint + geometry.

        ``base`` is a trained :class:`~repro.core.FCNNReconstructor`;
        ``indices`` are the frozen sampled flat grid indices every
        timestep of the namespace shares (the campaign draws them once at
        the first timestep).  Idempotent for an identical re-create.
        """
        ns_id = namespace_id(dataset, fraction)
        ns_dir = self.root / ns_id
        ns_dir.mkdir(parents=True, exist_ok=True)
        indices = np.sort(np.asarray(indices, dtype=np.int64))
        base.save(ns_dir / "base.npz")
        _atomic_save_npy(ns_dir / "indices.npy", indices)
        record = self._records.get(ns_id)
        if record is None:
            record = {
                "dataset": str(dataset),
                "fraction": float(fraction),
                "grid": {
                    "dims": list(grid.dims),
                    "spacing": list(grid.spacing),
                    "origin": list(grid.origin),
                },
                "timesteps": [],
            }
            self._records[ns_id] = record
        self._flush_manifest()
        self._namespaces.pop(ns_id, None)
        return self.namespace(dataset, fraction)

    def namespace(self, dataset: str, fraction: float) -> RegistryNamespace:
        ns_id = namespace_id(dataset, fraction)
        ns = self._namespaces.get(ns_id)
        if ns is None:
            record = self._records.get(ns_id)
            if record is None:
                raise KeyError(f"no namespace {ns_id!r} in registry {self.root}")
            ns = RegistryNamespace(self, ns_id, record)
            self._namespaces[ns_id] = ns
        return ns

    def namespaces(self) -> list[RegistryNamespace]:
        return [
            self.namespace(rec["dataset"], rec["fraction"])
            for rec in self._records.values()
        ]

    # ----------------------------------------------------------------- put
    def put(self, key: ModelKey, weights: np.ndarray, values: np.ndarray) -> None:
        """Store one timestep's fine-tuned weights + sample values, durably."""
        ns = self.namespace(key.dataset, key.fraction)
        weights = np.asarray(weights, dtype=np.float64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != ns.indices.size:
            raise ValueError(
                f"{key}: {values.size} sample values for {ns.indices.size} "
                "registered sample locations"
            )
        ns_dir = self.root / ns.ns_id
        _atomic_save_npy(ns_dir / f"weights_t{key.timestep}.npy", weights)
        _atomic_save_npy(ns_dir / f"values_t{key.timestep}.npy", values)
        if key.timestep not in ns.timesteps:
            ns.timesteps.append(int(key.timestep))
            ns.timesteps.sort()
            self._records[ns.ns_id]["timesteps"] = list(ns.timesteps)
            self._flush_manifest()
        # A re-put invalidates any cached hot copy of the old weights.
        self._hot.pop(key, None)

    # ---------------------------------------------------------------- reads
    def _paths(self, key: ModelKey) -> tuple[Path, Path]:
        ns = self.namespace(key.dataset, key.fraction)
        if key.timestep not in ns.timesteps:
            raise KeyError(f"no weights for {key} in registry {self.root}")
        ns_dir = self.root / ns.ns_id
        return (
            ns_dir / f"weights_t{key.timestep}.npy",
            ns_dir / f"values_t{key.timestep}.npy",
        )

    def cold_weights(self, key: ModelKey) -> np.ndarray:
        """The stored flat weights as a read-only memory map (no RAM copy)."""
        wpath, _ = self._paths(key)
        return np.load(wpath, mmap_mode="r")

    def cold_values(self, key: ModelKey) -> np.ndarray:
        _, vpath = self._paths(key)
        return np.load(vpath, mmap_mode="r")

    def hot(self, key: ModelKey) -> tuple[np.ndarray, np.ndarray]:
        """In-RAM ``(weights, values)`` for ``key``, LRU-cached.

        A hit moves the entry to the cache's fresh end; a miss pages the
        cold ``.npy`` artifacts in and may evict the stalest entry.
        """
        entry = self._hot.get(key)
        if entry is not None:
            self._hot.move_to_end(key)
            self._hits += 1
            obs_counter("serve.registry.hits").inc()
            return entry
        self._misses += 1
        obs_counter("serve.registry.misses").inc()
        weights = np.array(self.cold_weights(key), dtype=np.float64, copy=True)
        values = np.array(self.cold_values(key), dtype=np.float64, copy=True)
        while len(self._hot) >= self.hot_capacity:
            self._hot.popitem(last=False)
        self._hot[key] = (weights, values)
        obs_gauge("serve.registry.hot_entries").set(len(self._hot))
        return weights, values

    def keys(self) -> list[ModelKey]:
        out: list[ModelKey] = []
        for ns in self.namespaces():
            out.extend(ns.keys())
        return sorted(out)

    def __contains__(self, key: ModelKey) -> bool:
        try:
            ns = self.namespace(key.dataset, key.fraction)
        except KeyError:
            return False
        return key.timestep in ns.timesteps

    def __len__(self) -> int:
        return sum(len(rec["timesteps"]) for rec in self._records.values())

    def stats(self) -> dict:
        return {
            "keys": len(self),
            "namespaces": len(self._records),
            "hot_entries": len(self._hot),
            "hot_hits": self._hits,
            "hot_misses": self._misses,
        }

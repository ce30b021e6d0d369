"""A numerical fingerprint of the rendered data, the trained SMOKE pool, the
cascades the optimizer evaluates and selects from it, and the answers the
database returns with them.

``tests/fingerprint.json`` records sha256 digests of facts grouped by layer:

* ``data`` — ``generate_corpus`` images, metadata and content for seeds 0-2
  at 16 and 32 px, the SMOKE ``build_predicate_splits`` of both categories,
  one ``generate_video_stream`` config, and the generator's
  ``bit_generator.state`` after each call;
* ``nn`` — every trained weight of the shared SMOKE workspace's model pools
  (the grid models and the reference classifier of each predicate);
* ``core`` — per predicate, the calibrated thresholds and the cached
  eval-split probabilities; per predicate x scenario, every cascade's
  accuracy, load / transform / infer cost, ``level_fractions`` and
  ``positive_rate`` as ``optimizer.evaluate`` reports them, the frontier's
  members in order, and the cascade ``optimizer.select`` picks (by name)
  for each ``max_accuracy_loss`` in ``SELECT_LOSSES``;
* ``db`` — every query of ``DB_QUERIES`` run cold, each on a fresh
  :meth:`~repro.experiments.workspace.ExperimentWorkspace.database` under
  ARCHIVE and under ONGOING, over the tables ``cam_a`` and ``cam_b`` (256
  fresh frames each, from one fixed seed): the selected image ids with their
  ``__table__`` and ``contains_*`` columns (every column of an aggregate's
  groups), ``images_classified`` and the ``cascades_used`` names, all as
  plain text;
* ``transforms`` — ``apply_batch`` over one fixed generated batch for every
  spec of the SMOKE and DEFAULT transform grids, the batch rendered at the
  scale's ``image_size`` (so each grid has native specs and area
  downsamples).

Floats are hashed byte for byte: a change that moves any number by one ulp
changes its digest.  ``tests/test_fingerprint.py`` compares the suite's
SMOKE workspace against the file and names the group and the first key that
differs.  A change that alters numbers on purpose regenerates the file with::

    python -m tests.fingerprint

and the file's diff is the audit trail of what moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.data.categories import get_category  # noqa: E402
from repro.data.corpus import build_predicate_splits, generate_corpus  # noqa: E402
from repro.data.video import VideoStreamConfig, generate_video_stream  # noqa: E402

__all__ = ["FINGERPRINT_PATH", "collect", "first_difference"]

FINGERPRINT_PATH = Path(__file__).resolve().parent / "fingerprint.json"

#: Corpus categories: blob, stripes, star and cross shapes between them.
CORPUS_CATEGORIES = ("amphibian", "fence", "pinwheel", "scorpion")
CORPUS_SEEDS = (0, 1, 2)
CORPUS_SIZES = (16, 32)
CORPUS_IMAGES = 48

#: ``max_accuracy_loss`` values whose selected cascade the core group names.
SELECT_LOSSES = (None, 0.02, 0.05, 0.10)

#: The db group's query set: AND / OR / NOT trees over one table, a LIMIT
#: that classifies several 64-row chunks, ORDER BY ... LIMIT, a GROUP BY
#: aggregate and a cold two-shard fan-out.
DB_QUERIES = {
    "and": "SELECT * FROM cam_a WHERE contains_object('komondor') "
           "AND location = 'detroit'",
    "or": "SELECT * FROM cam_a WHERE contains_object('komondor') "
          "OR contains_object('scorpion')",
    "not": "SELECT * FROM cam_b WHERE NOT contains_object('scorpion') "
           "AND timestamp < 43200",
    "limit": "SELECT * FROM cam_a WHERE contains_object('komondor') "
             "AND contains_object('scorpion') LIMIT 11",
    "order_limit": "SELECT * FROM cam_b WHERE contains_object('scorpion') "
                   "ORDER BY timestamp DESC LIMIT 7",
    "group_by": "SELECT location, COUNT(*) FROM cam_b "
                "WHERE contains_object('komondor') GROUP BY location",
    "fanout": "SELECT * FROM all_cameras WHERE contains_object('komondor') "
              "AND NOT contains_object('scorpion')",
}
DB_SCENARIOS = ("archive", "ongoing")
DB_FRAMES_PER_TABLE = 256
DB_SEED = 2024

#: The transforms group's batch: frames per scale, and their seed.
TRANSFORM_FRAMES = 12
TRANSFORM_SEED = 7

VIDEO_CONFIG = VideoStreamConfig(
    name="fingerprint", category_name="scorpion", n_frames=24, frame_size=16,
    positive_rate=0.4, mean_dwell=3.0, sensor_noise=0.02, difficulty=2)


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    hasher = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    hasher.update(array.tobytes())
    return hasher.hexdigest()


def _state_digest(rng: np.random.Generator) -> str:
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()


def _data_facts(scale) -> dict[str, str]:
    facts: dict[str, str] = {}
    categories = tuple(get_category(name) for name in CORPUS_CATEGORIES)
    for seed in CORPUS_SEEDS:
        for size in CORPUS_SIZES:
            rng = np.random.default_rng(seed)
            corpus = generate_corpus(categories, CORPUS_IMAGES, size, rng=rng,
                                     positive_rate=0.9)
            prefix = f"corpus/seed={seed}/size={size}"
            facts[f"{prefix}/images"] = _digest(corpus.images)
            for key, values in corpus.metadata.items():
                facts[f"{prefix}/metadata/{key}"] = _digest(values)
            for key, values in corpus.content.items():
                facts[f"{prefix}/content/{key}"] = _digest(values)
            facts[f"{prefix}/rng_state"] = _state_digest(rng)

    # The SMOKE splits exactly as build_workspace renders them.
    for index, name in enumerate(scale.categories):
        rng = np.random.default_rng(scale.seed + index)
        splits = build_predicate_splits(
            get_category(name), n_train=scale.n_train, n_config=scale.n_config,
            n_eval=scale.n_eval, image_size=scale.image_size, rng=rng)
        for split in ("train", "config", "eval"):
            dataset = getattr(splits, split)
            facts[f"splits/{name}/{split}/images"] = _digest(dataset.images)
            facts[f"splits/{name}/{split}/labels"] = _digest(dataset.labels)
        facts[f"splits/{name}/rng_state"] = _state_digest(rng)

    rng = np.random.default_rng(5)
    stream = generate_video_stream(VIDEO_CONFIG, rng=rng)
    facts["video/frames"] = _digest(stream.frames)
    facts["video/labels"] = _digest(stream.labels)
    facts["video/rng_state"] = _state_digest(rng)
    return facts


def _nn_facts(workspace) -> dict[str, str]:
    facts: dict[str, str] = {}
    for name, predicate in workspace.predicates.items():
        for model in [*predicate.models, predicate.reference_model]:
            for key, value in model.network.parameters().items():
                facts[f"{name}/{model.name}/{key}"] = _digest(value)
    return facts


def _names_digest(names) -> str:
    return hashlib.sha256("\n".join(names).encode()).hexdigest()


def _core_facts(workspace) -> dict[str, str]:
    from repro.core.selector import UserConstraints

    facts: dict[str, str] = {}
    profilers = workspace.profilers()
    for name, predicate in workspace.predicates.items():
        optimizer = predicate.optimizer
        facts[f"{name}/thresholds"] = _digest(
            [(t.p_low, t.p_high, t.precision_target)
             for model in sorted(optimizer.thresholds)
             for t in optimizer.thresholds[model]])
        facts[f"{name}/eval_probabilities"] = _digest(
            [optimizer.cache.probabilities[model]
             for model in sorted(optimizer.cache.probabilities)])
        for scenario, profiler in profilers.items():
            prefix = f"{name}/{scenario}"
            evaluations = optimizer.evaluate(profiler).evaluations
            facts[f"{prefix}/cascades"] = _names_digest(
                e.name for e in evaluations)
            facts[f"{prefix}/accuracy"] = _digest(
                [e.accuracy for e in evaluations])
            for term in ("load_s", "transform_s", "infer_s"):
                facts[f"{prefix}/{term}"] = _digest(
                    [getattr(e.cost, term) for e in evaluations])
            facts[f"{prefix}/level_fractions"] = _digest(
                [f for e in evaluations for f in e.level_fractions])
            facts[f"{prefix}/positive_rate"] = _digest(
                [e.positive_rate for e in evaluations])
            facts[f"{prefix}/frontier"] = _names_digest(
                e.name for e in optimizer.frontier(profiler))
            for loss in SELECT_LOSSES:
                selected = optimizer.select(
                    profiler, UserConstraints(max_accuracy_loss=loss))
                facts[f"{prefix}/select/max_accuracy_loss={loss}"] = (
                    selected.name)
    return facts


def _text(values) -> str:
    """Space-separated values, booleans as 0 / 1."""
    return " ".join(str(int(v)) if isinstance(v, bool) else str(v)
                    for v in values)


def _db_facts(workspace) -> dict[str, str]:
    from repro.db.results import AggregateResultSet

    scale = workspace.scale
    categories = tuple(get_category(name) for name in scale.categories)
    rng = np.random.default_rng(DB_SEED)
    corpora = {table: generate_corpus(categories, DB_FRAMES_PER_TABLE,
                                      scale.image_size, rng=rng)
               for table in ("cam_a", "cam_b")}
    facts: dict[str, str] = {}
    for scenario in DB_SCENARIOS:
        for name, sql in DB_QUERIES.items():
            prefix = f"{scenario}/{name}"
            with workspace.database(scenario, dict(corpora)) as db:
                result = db.execute(sql)
                stats = result.stats()
                relation = result.to_relation()
                aggregate = isinstance(result, AggregateResultSet)
                for column in relation.column_names():
                    if (aggregate or column in ("image_id", "__table__")
                            or column.startswith("contains_")):
                        facts[f"{prefix}/{column}"] = _text(
                            relation.column(column).tolist())
            for key in ("images_classified", "cascades_used"):
                facts[f"{prefix}/{key}"] = json.dumps(stats[key],
                                                      sort_keys=True)
    return facts


def _transform_facts() -> dict[str, str]:
    from repro.experiments.presets import DEFAULT_SCALE, SMOKE_SCALE

    facts: dict[str, str] = {}
    categories = tuple(get_category(name) for name in CORPUS_CATEGORIES)
    for scale in (SMOKE_SCALE, DEFAULT_SCALE):
        rng = np.random.default_rng(TRANSFORM_SEED)
        batch = generate_corpus(categories, TRANSFORM_FRAMES,
                                scale.image_size, rng=rng).images
        for spec in scale.transforms():
            facts[f"{scale.name}/{spec.name}"] = _digest(
                spec.apply_batch(batch))
    return facts


def collect(workspace) -> dict[str, dict[str, str]]:
    """Every fact group for ``workspace`` (the SMOKE_SCALE workspace)."""
    return {"data": _data_facts(workspace.scale), "nn": _nn_facts(workspace),
            "core": _core_facts(workspace), "db": _db_facts(workspace),
            "transforms": _transform_facts()}


def first_difference(expected: dict[str, dict[str, str]],
                     actual: dict[str, dict[str, str]]
                     ) -> tuple[str, str] | None:
    """``(group, key)`` of the first fact that differs, or ``None``.

    A key present on one side only counts as a difference.
    """
    for group in sorted(set(expected) | set(actual)):
        want, got = expected.get(group, {}), actual.get(group, {})
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                return group, key
    return None


def main() -> None:
    from repro.experiments.presets import SMOKE_SCALE
    from repro.experiments.workspace import get_workspace

    facts = collect(get_workspace(SMOKE_SCALE))
    FINGERPRINT_PATH.write_text(json.dumps(facts, indent=1, sort_keys=True)
                                + "\n")
    print(f"wrote {FINGERPRINT_PATH} "
          f"({', '.join(f'{g}: {len(k)} facts' for g, k in facts.items())})")


if __name__ == "__main__":
    main()

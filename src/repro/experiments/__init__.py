"""One module per paper table / figure, plus ablations.

Each module exposes ``run_<id>()`` returning structured results and
``format_<id>()`` rendering them as the paper's table.  The benchmark
harness (``benchmarks/``) and the CLI are thin wrappers around these.
"""

from .ablation import (
    DynamicAblationRow,
    HeatAblationRow,
    RegressionAblation,
    SAAblationPoint,
    format_dynamic_ablation,
    format_heat_ablation,
    run_dynamic_ablation,
    run_heat_ablation,
    format_regression_ablation,
    format_sa_ablation,
    run_regression_ablation,
    run_sa_ablation,
)
from .common import (
    characterization_cluster,
    evaluation_cluster,
    fig1_capacity,
    model_matrix,
    provider,
    single_config_cost,
)
from .crosscloud import (
    CrossCloudRow,
    crosscloud_workloads,
    format_crosscloud,
    run_crosscloud,
)
from .fig1 import Fig1Cell, Fig1Result, format_fig1, run_fig1
from .fig2 import Fig2Series, format_fig2, run_fig2
from .fig3 import Fig3Cell, Fig3Result, format_fig3, run_fig3
from .fig4 import Fig4Plan, format_fig4, run_fig4
from .fig5 import Fig5Point, Fig5Result, format_fig5, run_fig5
from .fig7 import Fig7Config, Fig7Result, format_fig7, run_fig7
from .fig8 import Fig8Point, Fig8Result, format_fig8, run_fig8
from .fig9 import Fig9Config, Fig9Result, format_fig9, run_fig9
from .measure import PlanMeasurement, measure_plan
from .report import generate_report
from ..workers import spawn_seeds
from .runner import ExperimentRunner, SimReport, sim_report
from .sensitivity import (
    SensitivityRow,
    format_price_sensitivity,
    reprice,
    run_price_sensitivity,
)
from .table1 import Table1Row, format_table1, run_table1
from .table2 import Table2Row, format_table2, run_table2
from .table4 import Table4Check, format_table4, run_table4

__all__ = [
    "provider",
    "characterization_cluster",
    "evaluation_cluster",
    "model_matrix",
    "fig1_capacity",
    "single_config_cost",
    "PlanMeasurement",
    "measure_plan",
    "generate_report",
    "ExperimentRunner",
    "SimReport",
    "sim_report",
    "spawn_seeds",
    "SensitivityRow",
    "reprice",
    "run_price_sensitivity",
    "format_price_sensitivity",
    "CrossCloudRow",
    "crosscloud_workloads",
    "run_crosscloud",
    "format_crosscloud",
    "Table1Row",
    "run_table1",
    "format_table1",
    "Table2Row",
    "run_table2",
    "format_table2",
    "Table4Check",
    "run_table4",
    "format_table4",
    "Fig1Cell",
    "Fig1Result",
    "run_fig1",
    "format_fig1",
    "Fig2Series",
    "run_fig2",
    "format_fig2",
    "Fig3Cell",
    "Fig3Result",
    "run_fig3",
    "format_fig3",
    "Fig4Plan",
    "run_fig4",
    "format_fig4",
    "Fig5Point",
    "Fig5Result",
    "run_fig5",
    "format_fig5",
    "Fig7Config",
    "Fig7Result",
    "run_fig7",
    "format_fig7",
    "Fig8Point",
    "Fig8Result",
    "run_fig8",
    "format_fig8",
    "Fig9Config",
    "Fig9Result",
    "run_fig9",
    "format_fig9",
    "SAAblationPoint",
    "run_sa_ablation",
    "format_sa_ablation",
    "RegressionAblation",
    "run_regression_ablation",
    "format_regression_ablation",
    "HeatAblationRow",
    "run_heat_ablation",
    "format_heat_ablation",
    "DynamicAblationRow",
    "run_dynamic_ablation",
    "format_dynamic_ablation",
]

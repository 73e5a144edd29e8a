#include "vlsi/fu_model.hh"

#include "support/logging.hh"
#include "vlsi/technology.hh"

namespace vvsp
{

double
FunctionalUnitModel::aluDelayNs(bool absDiff) const
{
    const Technology &tech = Technology::um025();
    return tech.aluDelay + (absDiff ? tech.absDiffExtraDelay : 0.0);
}

double
FunctionalUnitModel::aluAreaMm2(bool absDiff) const
{
    const Technology &tech = Technology::um025();
    return tech.aluArea + (absDiff ? tech.absDiffExtraArea : 0.0);
}

double
FunctionalUnitModel::mult8DelayNs() const
{
    return Technology::um025().mult8Delay;
}

double
FunctionalUnitModel::mult8AreaMm2() const
{
    return Technology::um025().mult8Area;
}

double
FunctionalUnitModel::mult16StageDelayNs() const
{
    return Technology::um025().mult16StageDelay;
}

double
FunctionalUnitModel::mult16AreaMm2() const
{
    return Technology::um025().mult16Area;
}

double
FunctionalUnitModel::shifterDelayNs() const
{
    return Technology::um025().shifterDelay;
}

double
FunctionalUnitModel::shifterAreaMm2() const
{
    return Technology::um025().shifterArea;
}

double
FunctionalUnitModel::bypassMuxDelayNs(int inputs) const
{
    vvsp_assert(inputs >= 1, "bypass mux needs inputs");
    return Technology::um025().bypassMuxDelayPerInput * inputs;
}

} // namespace vvsp

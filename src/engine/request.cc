#include "engine/request.hh"

namespace slinfer
{

Seconds
Request::noteToken(Seconds t)
{
    Seconds slack = deadlineForNextToken() - t;
    if (slack < 0)
        sloViolated = true;
    if (generated == 0)
        firstTokenTime = t;
    ++generated;
    return slack;
}

} // namespace slinfer

// The compiled instantiation of the default (UFO tree) backend.
#include "connectivity/connectivity.h"

namespace ufo::conn {

template class GraphConnectivity<seq::UfoTree>;

}  // namespace ufo::conn

include Cluster.Engine
